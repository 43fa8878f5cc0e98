// Experiment E12 — serving range queries from the summary store
// (DESIGN.md §10), a DurableStore over MemStorage.
//
// The store precomputes a dyadic merge tree over sealed epochs, so any
// [t1, t2] range is answered by merging <= 2*log2(n) canonical node
// payloads instead of one summary per epoch; a bounded LRU cache of
// materialized merged summaries then absorbs repeated and overlapping
// queries. Three questions:
//
//  1. How many merges does a range cost, versus the naive
//     one-merge-per-epoch fold? (Table 1: range-length sweep, cold and
//     warm latency, nodes fetched, bytes read.)
//  2. What does the cache buy under a skewed query workload, and how
//     does capacity trade memory against hit rate? (Table 2: capacity
//     sweep over a fixed random workload.)
//  3. What do serving counters look like end to end? (JSON `counters`:
//     cache hit rate, nodes merged per query, bytes read — the fields
//     dashboards ingest from BENCH_store.json.)
//
// `--smoke` shrinks every dimension so CI can execute the binary in
// seconds while still exercising every code path.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/query.h"
#include "mergeable/stream/generators.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable::bench {
namespace {

bool g_smoke = false;

constexpr double kEpsilon = 0.01;
constexpr uint64_t kStream = 1;
constexpr uint32_t kPerEpoch = 2000;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SpaceSaving EpochSummary(uint64_t epoch) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = kPerEpoch;
  spec.universe = 4096;
  spec.alpha = 1.1;
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  for (uint64_t item : GenerateStream(spec, 100 + epoch)) {
    summary.Update(item);
  }
  return summary;
}

EpochMeta FullMeta(uint64_t epoch) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = kPerEpoch;
  meta.shards_total = 1;
  meta.shards_received = 1;
  return meta;
}

// Seals `epochs` summaries into the segment log on `storage`.
void SealAll(Storage* storage, uint64_t epochs,
             const DurableStoreOptions& options) {
  DurableStore<SpaceSaving> store(storage, options);
  for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
    MERGEABLE_CHECK_MSG(store.Seal(kStream, EpochSummary(epoch),
                                   FullMeta(epoch)),
                        "seal must succeed");
  }
}

// Table 1: cost of one range query as a function of range length —
// dyadic cover size and merge count against the naive per-epoch fold,
// cold latency (a freshly opened store: only Open()'s pre-warm of the
// full-range cover is cached) and warm latency (answer memoized).
void SweepRangeLength(const MemStorage& sealed, uint64_t epochs) {
  PrintHeader("range query vs length, " + std::to_string(epochs) + " epochs",
              {"range len", "nodes", "merges", "naive merges", "cold ms",
               "warm ms", "cold KiB read"});
  // The last row is the longest range Open() leaves cold: Open()
  // memoizes the full range [0, epochs - 1], so querying it would time
  // a range-cache hit.
  std::vector<uint64_t> lengths;
  for (uint64_t len = 1; len < epochs - 1; len *= 4) lengths.push_back(len);
  lengths.push_back(epochs - 1);
  for (uint64_t len : lengths) {
    // A maximally unaligned range: starts one epoch in, so the cover
    // uses small nodes at both flanks.
    const uint64_t lo = 1;
    const uint64_t hi = lo + len - 1;

    MemStorage storage = sealed;  // Fresh copy: cold storage, cold cache.
    DurableStoreOptions options;
    options.store.epsilon = kEpsilon;
    DurableStore<SpaceSaving> store(&storage, options);
    MERGEABLE_CHECK_MSG(store.Open().streams == 1,
                        "store must recover the stream");

    const auto cold_start = std::chrono::steady_clock::now();
    const auto cold = store.QueryRangePayload(kStream, lo, hi);
    const double cold_ms = ElapsedMs(cold_start);
    MERGEABLE_CHECK_MSG(cold.has_value() && !cold->stats.range_cache_hit,
                        "cold range query must fold its cover");

    const auto warm_start = std::chrono::steady_clock::now();
    const auto warm = store.QueryRangePayload(kStream, lo, hi);
    const double warm_ms = ElapsedMs(warm_start);
    MERGEABLE_CHECK_MSG(warm.has_value() && warm->stats.range_cache_hit,
                        "repeat query must be a range-cache hit");

    PrintRow({FormatU64(len), FormatU64(cold->stats.nodes_merged),
              FormatU64(cold->stats.merges_performed),
              FormatU64(len - 1), FormatDouble(cold_ms, 3),
              FormatDouble(warm_ms, 3),
              FormatDouble(
                  static_cast<double>(cold->stats.bytes_read) / 1024.0, 1)});
  }
}

struct WorkloadResult {
  double hit_rate = 0.0;
  double nodes_per_query = 0.0;
  double merges_per_query = 0.0;
  uint64_t bytes_read = 0;
  uint64_t evictions = 0;
  double total_ms = 0.0;
};

// Runs a fixed pseudo-random query workload (lengths skewed short, like
// dashboard panels querying recent windows) against a store with the
// given cache capacity.
WorkloadResult RunWorkload(const MemStorage& sealed, uint64_t epochs,
                           size_t cache_capacity, uint64_t queries) {
  MemStorage storage = sealed;
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  options.store.cache_capacity = cache_capacity;
  DurableStore<SpaceSaving> store(&storage, options);
  MERGEABLE_CHECK_MSG(store.Open().streams == 1,
                      "store must recover the stream");

  Rng rng(7);  // Same workload for every capacity.
  WorkloadResult result;
  uint64_t nodes = 0;
  uint64_t merges = 0;
  uint64_t answer_hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t q = 0; q < queries; ++q) {
    // Query lengths: mostly short windows, occasionally the full range.
    const uint64_t max_len = rng.Bernoulli(0.1)
                                 ? epochs
                                 : (epochs >= 16 ? epochs / 16 : epochs);
    const uint64_t len = 1 + rng.UniformInt(max_len);
    const uint64_t lo = rng.UniformInt(epochs - len + 1);
    const auto outcome = store.QueryRangePayload(kStream, lo, lo + len - 1);
    MERGEABLE_CHECK_MSG(outcome.has_value(), "workload query must succeed");
    nodes += outcome->stats.nodes_merged;
    merges += outcome->stats.merges_performed;
    if (outcome->stats.range_cache_hit) ++answer_hits;
    result.bytes_read += outcome->stats.bytes_read;
  }
  result.total_ms = ElapsedMs(start);

  const CacheStats cache = store.cache_stats();
  const uint64_t lookups = cache.hits + cache.misses;
  result.hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  result.nodes_per_query =
      static_cast<double>(nodes) / static_cast<double>(queries);
  result.merges_per_query =
      static_cast<double>(merges) / static_cast<double>(queries);
  result.evictions = cache.evictions;
  return result;
}

int Main() {
  const uint64_t epochs = g_smoke ? 128 : 2048;
  const uint64_t queries = g_smoke ? 200 : 2000;

  std::printf(
      "E12: SpaceSaving(eps=%g) epochs of %u zipf items each; dyadic\n"
      "merge tree over %llu epochs, LRU merged-summary cache%s\n",
      kEpsilon, kPerEpoch, static_cast<unsigned long long>(epochs),
      g_smoke ? " (smoke)" : "");

  // Seal once; every sweep below starts from a copy of this storage.
  MemStorage sealed;
  {
    DurableStoreOptions options;
    options.store.epsilon = kEpsilon;
    SealAll(&sealed, epochs, options);
  }

  SweepRangeLength(sealed, epochs);

  PrintHeader("cache capacity sweep, " + std::to_string(queries) + " queries",
              {"capacity", "hit rate", "nodes/query", "merges/query",
               "MiB read", "evictions", "total ms"});
  const size_t capacities[] = {1, 8, 64, 512};
  WorkloadResult serving;  // The largest capacity = the serving config.
  for (size_t capacity : capacities) {
    const WorkloadResult r = RunWorkload(sealed, epochs, capacity, queries);
    PrintRow({FormatU64(capacity), FormatDouble(r.hit_rate, 3),
              FormatDouble(r.nodes_per_query, 2),
              FormatDouble(r.merges_per_query, 2),
              FormatDouble(static_cast<double>(r.bytes_read) /
                               (1024.0 * 1024.0), 2),
              FormatU64(r.evictions), FormatDouble(r.total_ms, 1)});
    serving = r;
  }

  // The serving metrics dashboards ingest from BENCH_store.json.
  RecordCounter("cache_hit_rate", serving.hit_rate);
  RecordCounter("nodes_merged_per_query", serving.nodes_per_query);
  RecordCounter("merges_per_query", serving.merges_per_query);
  RecordCounter("bytes_read", static_cast<double>(serving.bytes_read));

  // Sanity: a typed planner query end to end (top-k over the full range).
  {
    MemStorage storage = sealed;
    DurableStore<SpaceSaving> store(&storage);
    MERGEABLE_CHECK_MSG(store.Open().streams == 1,
                        "store must recover the stream");
    const auto topk = QueryTopK(store, kStream, 0, epochs - 1, 5);
    MERGEABLE_CHECK_MSG(topk.has_value() && topk->items.size() == 5,
                        "top-k over the full range must answer");
  }
  return 0;
}

}  // namespace
}  // namespace mergeable::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      mergeable::bench::g_smoke = true;
    }
  }
  return mergeable::bench::RunAndDump("store", mergeable::bench::Main);
}
