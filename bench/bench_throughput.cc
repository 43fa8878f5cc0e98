// Experiment P1 — update / merge / query throughput (google-benchmark).
//
// Engineering numbers, not paper claims: how fast each summary ingests
// items, merges, and answers queries. Includes the SpaceSaving ablation
// (heap update path) called out in DESIGN.md §5, and the cost of
// keeping a merge canonical (BM_Fold*: plain vs in place vs round trip)
// and the frame/segment checksum kernel (BM_Checksum, bytes/s). The
// query path's pieces: SpaceSaving decode from wire bytes
// (BM_DecodeSpaceSaving) and one store range query end to end without
// sockets — node fetch, decode, canonical fold, encode
// (BM_StoreQueryFold).
//
// Like the table benches (bench_util.h), this binary mirrors its
// results to BENCH_throughput.json — via google-benchmark's own JSON
// reporter, defaulted below unless the caller overrides --benchmark_out.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/approx/eps_approximation.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/gk.h"
#include "mergeable/quantiles/qdigest.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/sketch/bloom.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/sketch/count_sketch.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/generators.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

const std::vector<uint64_t>& ZipfStream() {
  static const std::vector<uint64_t>* stream = [] {
    StreamSpec spec;
    spec.kind = StreamKind::kZipf;
    spec.n = 1 << 18;
    spec.universe = 1 << 14;
    spec.alpha = 1.1;
    return new std::vector<uint64_t>(GenerateStream(spec, 7));
  }();
  return *stream;
}

void BM_MisraGriesUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MisraGries mg(capacity);
    for (uint64_t item : stream) mg.Update(item);
    benchmark::DoNotOptimize(mg.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_MisraGriesUpdate)->Arg(64)->Arg(1024);

void BM_SpaceSavingUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SpaceSaving ss(capacity);
    for (uint64_t item : stream) ss.Update(item);
    benchmark::DoNotOptimize(ss.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SpaceSavingUpdate)->Arg(64)->Arg(1024);

void BM_CountMinUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    CountMinSketch sketch(4, 2048, 1);
    for (uint64_t item : stream) sketch.Update(item);
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_CountMinUpdate);

// Batched ingestion: same counters, row-major walk + hoisted hash state.
void BM_CountMinUpdateBatch(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    CountMinSketch sketch(4, 2048, 1);
    sketch.UpdateBatch(stream.data(), stream.size());
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_CountMinUpdateBatch);

void BM_CountSketchUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    CountSketch sketch(4, 2048, 1);
    for (uint64_t item : stream) sketch.Update(item);
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_CountSketchUpdate);

void BM_CountSketchUpdateBatch(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    CountSketch sketch(4, 2048, 1);
    sketch.UpdateBatch(stream.data(), stream.size());
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_CountSketchUpdateBatch);

void BM_BloomAdd(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    BloomFilter filter(1 << 20, 5, 1);
    for (uint64_t item : stream) filter.Add(item);
    benchmark::DoNotOptimize(filter.added());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BloomAdd);

void BM_BloomAddBatch(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    BloomFilter filter(1 << 20, 5, 1);
    filter.AddBatch(stream.data(), stream.size());
    benchmark::DoNotOptimize(filter.added());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_BloomAddBatch);

void BM_SpaceSavingUpdateBatch(benchmark::State& state) {
  const auto& stream = ZipfStream();
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SpaceSaving ss(capacity);
    ss.UpdateBatch(stream.data(), stream.size());
    benchmark::DoNotOptimize(ss.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SpaceSavingUpdateBatch)->Arg(64)->Arg(1024);

void BM_MergeableQuantilesUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  const int buffer = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MergeableQuantiles sketch(buffer, 1);
    for (uint64_t item : stream) {
      sketch.Update(static_cast<double>(item & 0xffff));
    }
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_MergeableQuantilesUpdate)->Arg(128)->Arg(1024);

// Sorted-run bulk insert: one sort per batch, whole-buffer level-0 runs.
void BM_MergeableQuantilesUpdateBatch(benchmark::State& state) {
  const auto& stream = ZipfStream();
  std::vector<double> values;
  values.reserve(stream.size());
  for (uint64_t item : stream) {
    values.push_back(static_cast<double>(item & 0xffff));
  }
  const int buffer = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MergeableQuantiles sketch(buffer, 1);
    sketch.UpdateBatch(values.data(), values.size());
    benchmark::DoNotOptimize(sketch.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_MergeableQuantilesUpdateBatch)->Arg(128)->Arg(1024);

void BM_GkUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    GkSummary gk(0.01);
    for (uint64_t item : stream) {
      gk.Update(static_cast<double>(item & 0xffff));
    }
    benchmark::DoNotOptimize(gk.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_GkUpdate);

void BM_QDigestUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    QDigest digest = QDigest::ForEpsilon(0.01, 16);
    for (uint64_t item : stream) digest.Update(item & 0xffff);
    benchmark::DoNotOptimize(digest.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_QDigestUpdate);

void BM_EpsApproxUpdate(benchmark::State& state) {
  const auto& stream = ZipfStream();
  for (auto _ : state) {
    EpsApproximation summary(512, 1, HalvingPolicy::kMorton);
    for (uint64_t item : stream) {
      summary.Update(Point2{static_cast<double>(item & 0xff) / 255.0,
                            static_cast<double>((item >> 8) & 0xff) / 255.0});
    }
    benchmark::DoNotOptimize(summary.n());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_EpsApproxUpdate);

// Merge throughput: pre-built summary pairs, measured per merge.
template <typename S, typename MakeFn, typename MergeFn>
void MergeBenchmark(benchmark::State& state, MakeFn make, MergeFn merge) {
  const auto& stream = ZipfStream();
  S left = make(1);
  S right = make(2);
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 2 == 0 ? left : right).Update(stream[i]);
  }
  for (auto _ : state) {
    S copy = left;
    merge(copy, right);
    benchmark::DoNotOptimize(copy.n());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_MisraGriesMergeAgarwal(benchmark::State& state) {
  MergeBenchmark<MisraGries>(
      state, [](uint64_t) { return MisraGries(1024); },
      [](MisraGries& a, const MisraGries& b) { a.Merge(b); });
}
BENCHMARK(BM_MisraGriesMergeAgarwal);

void BM_MisraGriesMergeCafaro(benchmark::State& state) {
  MergeBenchmark<MisraGries>(
      state, [](uint64_t) { return MisraGries(1024); },
      [](MisraGries& a, const MisraGries& b) { a.MergeCafaro(b); });
}
BENCHMARK(BM_MisraGriesMergeCafaro);

void BM_SpaceSavingMergeAgarwal(benchmark::State& state) {
  MergeBenchmark<SpaceSaving>(
      state, [](uint64_t) { return SpaceSaving(1024); },
      [](SpaceSaving& a, const SpaceSaving& b) { a.Merge(b); });
}
BENCHMARK(BM_SpaceSavingMergeAgarwal);

void BM_SpaceSavingMergeCafaro(benchmark::State& state) {
  MergeBenchmark<SpaceSaving>(
      state, [](uint64_t) { return SpaceSaving(1024); },
      [](SpaceSaving& a, const SpaceSaving& b) { a.MergeCafaro(b); });
}
BENCHMARK(BM_SpaceSavingMergeCafaro);

void BM_CountMinMerge(benchmark::State& state) {
  const auto& stream = ZipfStream();
  CountMinSketch left(4, 2048, 1);
  CountMinSketch right(4, 2048, 1);
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 2 == 0 ? left : right).Update(stream[i]);
  }
  for (auto _ : state) {
    CountMinSketch copy = left;
    copy.Merge(right);
    benchmark::DoNotOptimize(copy.n());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinMerge);

void BM_MisraGriesQuery(benchmark::State& state) {
  const auto& stream = ZipfStream();
  MisraGries mg(1024);
  for (uint64_t item : stream) mg.Update(item);
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mg.LowerEstimate(stream[probe % stream.size()]));
    ++probe;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MisraGriesQuery);

void BM_QuantileQuery(benchmark::State& state) {
  const auto& stream = ZipfStream();
  MergeableQuantiles sketch(512, 1);
  for (uint64_t item : stream) {
    sketch.Update(static_cast<double>(item & 0xffff));
  }
  double phi = 0.0;
  for (auto _ : state) {
    phi += 0.001;
    if (phi >= 1.0) phi = 0.001;
    benchmark::DoNotOptimize(sketch.Quantile(phi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantileQuery);

// ROADMAP item 3's table: one left-deep fold of 64 parts (20k Zipf
// items each), per merge, for the three ways of keeping the running
// summary canonical — none (plain Merge), in place (Merge then
// Canonicalize, what the store, the server and the coordinator do) and
// by encode-then-decode round trip (what they did before Canonicalize
// existed; now only the test oracle). Items processed = merges.
// SpaceSaving's Canonicalize() is a no-op, so its plain and canonical
// rows measure the same work.
enum class FoldMode { kPlain, kCanonical, kRoundTrip };

template <typename S, typename Make>
std::vector<S> FoldParts(Make make) {
  std::vector<S> parts;
  for (uint64_t part = 0; part < 64; ++part) {
    StreamSpec spec;
    spec.kind = StreamKind::kZipf;
    spec.n = 20000;
    spec.universe = 1 << 14;
    spec.alpha = 1.1;
    S summary = make();
    for (uint64_t item : GenerateStream(spec, 100 + part)) {
      summary.Update(item);
    }
    parts.push_back(std::move(summary));
  }
  return parts;
}

template <typename S>
void RunFold(benchmark::State& state, const std::vector<S>& parts,
             FoldMode mode) {
  for (auto _ : state) {
    S merged = parts.front();
    for (size_t i = 1; i < parts.size(); ++i) {
      merged.Merge(parts[i]);
      if (mode == FoldMode::kCanonical) {
        merged.Canonicalize();
      } else if (mode == FoldMode::kRoundTrip) {
        ByteWriter writer;
        merged.EncodeTo(writer);
        ByteReader reader(writer.bytes());
        merged = *S::DecodeFrom(reader);
      }
    }
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(parts.size() - 1));
}

void BM_FoldCountMin(benchmark::State& state, FoldMode mode) {
  static const auto* parts = new std::vector<CountMinSketch>(
      FoldParts<CountMinSketch>([] { return CountMinSketch(4, 2048, 1); }));
  RunFold(state, *parts, mode);
}
BENCHMARK_CAPTURE(BM_FoldCountMin, plain, FoldMode::kPlain);
BENCHMARK_CAPTURE(BM_FoldCountMin, canonical, FoldMode::kCanonical);
BENCHMARK_CAPTURE(BM_FoldCountMin, round_trip, FoldMode::kRoundTrip);

void BM_FoldSpaceSaving(benchmark::State& state, int capacity,
                        FoldMode mode) {
  static auto* parts = new std::map<int, std::vector<SpaceSaving>>();
  auto it = parts->find(capacity);
  if (it == parts->end()) {
    const auto make = [capacity] { return SpaceSaving(capacity); };
    it = parts->emplace(capacity, FoldParts<SpaceSaving>(make)).first;
  }
  RunFold(state, it->second, mode);
}
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k1024_plain, 1024, FoldMode::kPlain);
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k1024_canonical, 1024,
                  FoldMode::kCanonical);
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k1024_round_trip, 1024,
                  FoldMode::kRoundTrip);
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k100_plain, 100, FoldMode::kPlain);
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k100_canonical, 100,
                  FoldMode::kCanonical);
BENCHMARK_CAPTURE(BM_FoldSpaceSaving, k100_round_trip, 100,
                  FoldMode::kRoundTrip);

// Decode cost from wire bytes, per decode: one 20k-item Zipf epoch
// summarized with `capacity` counters (k = 100 is the store's
// ε = 0.01 node size). Items processed = decodes.
void BM_DecodeSpaceSaving(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 20000;
  spec.universe = 1 << 14;
  spec.alpha = 1.1;
  SpaceSaving summary(capacity);
  for (uint64_t item : GenerateStream(spec, 100)) summary.Update(item);
  ByteWriter writer;
  summary.EncodeTo(writer);
  const std::vector<uint8_t> bytes = writer.bytes();
  for (auto _ : state) {
    ByteReader reader(bytes);
    benchmark::DoNotOptimize(SpaceSaving::DecodeFrom(reader));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeSpaceSaving)->Arg(2)->Arg(100)->Arg(1024);

// One store range query, per query: a SummaryStore<SpaceSaving>
// (ε = 0.01) over MemStorage with 4096 sealed epochs and a 64-entry
// cache, asked seeded short ranges (geometric lengths, mean 16) over
// the whole history. Few answers repeat, so nearly every query fetches
// its dyadic cover, decodes, folds canonically and encodes the answer.
void BM_StoreQueryFold(benchmark::State& state) {
  constexpr uint64_t kEpochs = 4096;
  constexpr uint64_t kStream = 1;
  static MemStorage* sealed = [] {
    auto* storage = new MemStorage();
    StoreOptions options;
    options.epsilon = 0.01;
    SummaryStore<SpaceSaving> store(storage, options);
    for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
      StreamSpec spec;
      spec.kind = StreamKind::kZipf;
      spec.n = 2000;
      spec.universe = 4096;
      spec.alpha = 1.1;
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.01);
      for (uint64_t item : GenerateStream(spec, 100 + epoch)) {
        summary.Update(item);
      }
      EpochMeta meta;
      meta.epoch = epoch;
      meta.n = spec.n;
      meta.shards_total = 1;
      meta.shards_received = 1;
      MERGEABLE_CHECK_MSG(store.Seal(kStream, summary, meta),
                          "seal must succeed");
    }
    return storage;
  }();
  MemStorage storage = *sealed;
  StoreOptions options;
  options.epsilon = 0.01;
  options.cache_capacity = 64;
  SummaryStore<SpaceSaving> store(&storage, options);
  MERGEABLE_CHECK_MSG(store.Open() == 1, "store must recover the stream");
  Rng rng(11);
  uint64_t nodes = 0;
  for (auto _ : state) {
    const uint64_t length = std::min<uint64_t>(
        kEpochs, 1 + static_cast<uint64_t>(
                         -16.0 * std::log(1.0 - rng.UniformDouble())));
    const uint64_t lo = rng.UniformInt(kEpochs - length + 1);
    const auto outcome = store.QueryRangePayload(kStream, lo, lo + length - 1);
    MERGEABLE_CHECK_MSG(outcome.has_value(), "query must succeed");
    nodes += outcome->stats.nodes_merged;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["nodes_per_query"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StoreQueryFold);

void BM_FoldMergeableQuantiles(benchmark::State& state, FoldMode mode) {
  static const auto* parts = new std::vector<MergeableQuantiles>(
      FoldParts<MergeableQuantiles>([] { return MergeableQuantiles(256, 1); }));
  RunFold(state, *parts, mode);
}
BENCHMARK_CAPTURE(BM_FoldMergeableQuantiles, plain, FoldMode::kPlain);
BENCHMARK_CAPTURE(BM_FoldMergeableQuantiles, canonical, FoldMode::kCanonical);
BENCHMARK_CAPTURE(BM_FoldMergeableQuantiles, round_trip,
                  FoldMode::kRoundTrip);

// The checksum kernel every frame and segment record goes through
// (util/hash.h ChecksumBytes, here via SegmentChecksum): bytes/s by
// input size. Below 64 bytes it is one serial MixHash chain; from 64
// bytes on, four lanes.
void BM_Checksum(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SegmentChecksum(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size));
}
BENCHMARK(BM_Checksum)->Arg(16)->Arg(64)->Arg(2048)->Arg(65536)->Arg(1048576);

}  // namespace
}  // namespace mergeable

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Default the machine-readable mirror; an explicit --benchmark_out on
  // the command line wins.
  std::string out_flag = "--benchmark_out=BENCH_throughput.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
