// Network monitoring pipeline: combine several mergeable summaries to
// answer different questions about the same flow stream with bounded
// memory — heavy flows (SpaceSaving), per-flow byte estimates
// (Count-Min), distinct sources (KMV) and a seen-set (Bloom), merged
// across collectors.
//
// Each minute the collectors' summaries are merged and *sealed* into a
// summary store (store/durable_store.h), which maintains a dyadic merge
// tree over the sealed epochs. Dashboard-style questions about any time
// window — "top flows in the last 4 minutes", "distinct sources this
// hour" — are then answered through the range-query planner
// (store/query.h) by merging a handful of precomputed tree nodes, not
// one summary per minute; repeated queries are served from the
// merged-summary cache without any merging at all.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/sketch/bloom.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/sketch/kmv.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/query.h"
#include "mergeable/util/hash.h"
#include "mergeable/util/random.h"

namespace {

using mergeable::BloomFilter;
using mergeable::CountMinSketch;
using mergeable::DurableStore;
using mergeable::DurableStoreOptions;
using mergeable::EpochMeta;
using mergeable::KmvSketch;
using mergeable::MemStorage;
using mergeable::MixHash;
using mergeable::QueryDistinctCount;
using mergeable::QueryPointFrequency;
using mergeable::QueryRange;
using mergeable::QueryTopK;
using mergeable::Rng;
using mergeable::SpaceSaving;

struct Packet {
  uint64_t flow = 0;   // (src, dst) pair id.
  uint64_t src = 0;    // Source address.
  uint64_t bytes = 0;  // Payload size.
};

// One collector's view of one minute of traffic. Every collector uses
// the same sketch parameters (and hash seeds), so views merge.
struct Collector {
  SpaceSaving heavy_flows = SpaceSaving::ForEpsilon(0.001);
  CountMinSketch bytes_per_flow =
      CountMinSketch::ForEpsilonDelta(0.001, 0.01, /*seed=*/11);
  KmvSketch distinct_sources{2048, /*seed=*/12};
  BloomFilter seen_flows = BloomFilter::ForExpectedItems(200000, 0.01,
                                                         /*seed=*/13);

  void Observe(const Packet& packet) {
    heavy_flows.Update(packet.flow);
    bytes_per_flow.Update(packet.flow, packet.bytes);
    distinct_sources.Add(packet.src);
    seen_flows.Add(packet.flow);
  }

  void Merge(const Collector& other) {
    heavy_flows.Merge(other.heavy_flows);
    bytes_per_flow.Merge(other.bytes_per_flow);
    distinct_sources.Merge(other.distinct_sources);
    seen_flows.Merge(other.seen_flows);
  }
};

Packet SynthesizePacket(Rng& rng) {
  // ~5000 sources; flows are Zipf-ish via a rank trick; elephant flows
  // carry most bytes.
  const uint64_t src = rng.UniformInt(uint64_t{5000});
  uint64_t rank = rng.UniformInt(uint64_t{2000});
  rank = rng.UniformInt(rank + 1);  // Skew toward small ranks.
  Packet packet;
  packet.src = src;
  packet.flow = MixHash(rank, /*seed=*/77);
  packet.bytes = 64 + rng.UniformInt(uint64_t{1400});
  if (rank < 5) packet.bytes *= 8;  // Elephant flows.
  return packet;
}

EpochMeta FullCoverage(uint64_t epoch, uint64_t packets, int collectors) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = packets;
  meta.shards_total = static_cast<uint32_t>(collectors);
  meta.shards_received = static_cast<uint32_t>(collectors);
  return meta;
}

}  // namespace

int main() {
  constexpr int kCollectors = 12;
  constexpr int kMinutes = 16;
  constexpr int kPacketsPerCollectorMinute = 12000;
  constexpr uint64_t kStream = 1;  // One monitored link.

  // One storage backend, one store per summary family (distinct
  // prefixes keep their segment logs apart).
  MemStorage storage;
  DurableStoreOptions flow_options;
  flow_options.prefix = "flows";
  flow_options.store.epsilon = 0.001;
  DurableStore<SpaceSaving> flow_store(&storage, flow_options);
  DurableStoreOptions byte_options;
  byte_options.prefix = "bytes";
  byte_options.store.epsilon = 0.001;
  DurableStore<CountMinSketch> byte_store(&storage, byte_options);
  DurableStoreOptions src_options;
  src_options.prefix = "sources";
  DurableStore<KmvSketch> source_store(&storage, src_options);
  DurableStoreOptions seen_options;
  seen_options.prefix = "seen";
  DurableStore<BloomFilter> seen_store(&storage, seen_options);

  // Ingest: each minute every collector observes its packets, the
  // collectors merge pairwise up a tree, and the minute's global
  // summaries are sealed as one epoch.
  uint64_t total_bytes = 0;
  Rng rng(7);
  for (int minute = 0; minute < kMinutes; ++minute) {
    std::vector<Collector> collectors(kCollectors);
    for (auto& collector : collectors) {
      for (int p = 0; p < kPacketsPerCollectorMinute; ++p) {
        const Packet packet = SynthesizePacket(rng);
        collector.Observe(packet);
        total_bytes += packet.bytes;
      }
    }
    while (collectors.size() > 1) {
      std::vector<Collector> next;
      for (size_t i = 0; i + 1 < collectors.size(); i += 2) {
        collectors[i].Merge(collectors[i + 1]);
        next.push_back(std::move(collectors[i]));
      }
      if (collectors.size() % 2 == 1) {
        next.push_back(std::move(collectors.back()));
      }
      collectors = std::move(next);
    }
    const Collector& global = collectors.front();

    const uint64_t epoch = static_cast<uint64_t>(minute);
    const EpochMeta meta = FullCoverage(
        epoch, uint64_t{kCollectors} * kPacketsPerCollectorMinute,
        kCollectors);
    flow_store.Seal(kStream, global.heavy_flows, meta);
    byte_store.Seal(kStream, global.bytes_per_flow, meta);
    source_store.Seal(kStream, global.distinct_sources, meta);
    seen_store.Seal(kStream, global.seen_flows, meta);
  }

  std::printf(
      "Sealed %d minutes x %d collectors x %d packets (%.1f MB total)\n\n",
      kMinutes, kCollectors, kPacketsPerCollectorMinute,
      static_cast<double>(total_bytes) / 1e6);

  // Dashboard question 1: top flows over the last 4 minutes, answered
  // from the merge tree (note nodes merged vs the 4 epochs covered).
  const uint64_t last = kMinutes - 1;
  const auto topk = QueryTopK(flow_store, kStream, last - 3, last, 5);
  if (topk.has_value()) {
    std::printf("Top flows, last 4 minutes (%llu tree nodes merged):\n",
                static_cast<unsigned long long>(topk->stats.nodes_merged));
    for (const auto& counter : topk->items) {
      std::printf("  flow %016llx: ~%llu packets\n",
                  static_cast<unsigned long long>(counter.item),
                  static_cast<unsigned long long>(counter.count));
    }
  }

  // Dashboard question 2: bytes carried by the biggest flow over the
  // whole window — a point query against the Count-Min store.
  const uint64_t probe_flow = MixHash(0, 77);
  const auto flow_bytes =
      QueryPointFrequency(byte_store, kStream, 0, last, probe_flow);
  if (flow_bytes.has_value()) {
    std::printf("\nFlow 0 bytes, full window: ~%llu (+/- eps*N bound)\n",
                static_cast<unsigned long long>(flow_bytes->estimate));
  }

  // Dashboard question 3: distinct sources, first half vs full window
  // (exact answer: 5000 — every minute sees roughly all sources).
  const auto first_half =
      QueryDistinctCount(source_store, kStream, 0, kMinutes / 2 - 1);
  const auto full_window =
      QueryDistinctCount(source_store, kStream, 0, last);
  if (first_half.has_value() && full_window.has_value()) {
    std::printf("Distinct sources: first half ~%.0f, full window ~%.0f\n",
                first_half->estimate, full_window->estimate);
  }

  // Dashboard question 4: was a flow seen in a window at all? Merge the
  // Bloom filters for the range and probe the membership bit.
  const auto seen = QueryRange(seen_store, kStream, 2, 9);
  if (seen.has_value()) {
    std::printf("Flow 0 seen in minutes [2, 9]: %s\n",
                seen->summary.MayContain(probe_flow) ? "yes" : "no");
    std::printf("Never-seen flow reported: %s\n",
                seen->summary.MayContain(0x1234567890abcdefULL)
                    ? "yes (false positive)"
                    : "no");
  }

  // Repeats are free: the merged answer is memoized, so the same window
  // costs zero merges the second time.
  const auto repeat = QueryTopK(flow_store, kStream, last - 3, last, 5);
  if (repeat.has_value()) {
    std::printf("\nRepeat of question 1: cache hit=%s, merges=%llu\n",
                repeat->stats.range_cache_hit ? "yes" : "no",
                static_cast<unsigned long long>(
                    repeat->stats.merges_performed));
  }
  return 0;
}
