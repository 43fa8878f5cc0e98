#include "mergeable/aggregate/summary_registry.h"

#include <utility>

#include "mergeable/approx/eps_approximation.h"
#include "mergeable/approx/eps_kernel.h"
#include "mergeable/approx/point.h"
#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/gk.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/quantiles/qdigest.h"
#include "mergeable/quantiles/reservoir.h"
#include "mergeable/sketch/ams.h"
#include "mergeable/sketch/bloom.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/sketch/count_sketch.h"
#include "mergeable/sketch/dyadic_count_min.h"
#include "mergeable/sketch/kmv.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/generators.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// A skewed item stream for corpus construction; `seed` varies content.
std::vector<uint64_t> CorpusStream(uint64_t seed, uint32_t n = 4000) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = n;
  spec.universe = 512;
  return GenerateStream(spec, seed);
}

template <typename T>
std::vector<uint8_t> Encode(const T& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

// The generic pieces of a registry entry for summary type T.
template <typename T>
bool Probe(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  return T::DecodeFrom(reader).has_value();
}

template <typename T>
std::optional<std::vector<uint8_t>> MergePayloads(
    const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  if constexpr (Mergeable<T>) {
    if (!ValidPayload<T>(a.data(), a.size()) ||
        !ValidPayload<T>(b.data(), b.size())) {
      return std::nullopt;
    }
    // The canonical fold of (a, b), the one every store and seal path
    // folds with (store/summary_store.h).
    std::optional<T> fold;
    FoldPayloadInto(fold, a.data(), a.size());
    FoldPayloadInto(fold, b.data(), b.size());
    return Encode(*fold);
  } else {
    (void)a;
    (void)b;
    return std::nullopt;
  }
}

template <typename T>
FuzzStats Fuzz(const std::vector<std::vector<uint8_t>>& corpus,
               uint64_t iterations, uint64_t seed) {
  return FuzzDecode<T>(corpus, iterations, seed);
}

// Corpus factories. Each mirrors the structural variants its type can
// take on the wire: an empty instance, a streamed one, and — where the
// type is mergeable and merging changes the encoding shape (under-slack,
// extra levels) — a merged one.
std::vector<std::vector<uint8_t>> MisraGriesCorpus(uint64_t seed) {
  MisraGries empty(16);
  MisraGries small(16);
  for (uint64_t item : CorpusStream(seed + 1, 200)) small.Update(item);
  MisraGries merged(16);
  for (uint64_t item : CorpusStream(seed + 2)) merged.Update(item);
  merged.Merge(small);
  return {Encode(empty), Encode(small), Encode(merged)};
}

std::vector<std::vector<uint8_t>> SpaceSavingCorpus(uint64_t seed) {
  SpaceSaving empty(16);
  SpaceSaving streamed(16);
  for (uint64_t item : CorpusStream(seed + 3)) streamed.Update(item);
  SpaceSaving merged(16);
  for (uint64_t item : CorpusStream(seed + 4)) merged.Update(item);
  merged.MergeCafaro(streamed);  // Populates under-slack and overs.
  return {Encode(empty), Encode(streamed), Encode(merged)};
}

std::vector<std::vector<uint8_t>> GkCorpus(uint64_t seed) {
  GkSummary empty(0.05);
  GkSummary filled(0.05);
  Rng rng(seed + 5);
  for (int i = 0; i < 3000; ++i) filled.Update(rng.UniformDouble());
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> MergeableQuantilesCorpus(uint64_t seed) {
  MergeableQuantiles empty(32, seed + 6);
  MergeableQuantiles filled(32, seed + 7);
  Rng rng(seed + 8);
  for (int i = 0; i < 5000; ++i) filled.Update(rng.UniformDouble());
  MergeableQuantiles merged(32, seed + 9);
  for (int i = 0; i < 2000; ++i) merged.Update(rng.UniformDouble());
  merged.Merge(filled);
  return {Encode(empty), Encode(filled), Encode(merged)};
}

std::vector<std::vector<uint8_t>> QDigestCorpus(uint64_t seed) {
  QDigest empty(10, 32);
  QDigest filled(10, 32);
  Rng rng(seed + 10);
  for (int i = 0; i < 4000; ++i) {
    filled.Update(rng.UniformInt(uint64_t{1} << 10));
  }
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> ReservoirCorpus(uint64_t seed) {
  ReservoirSample empty(32, seed + 11);
  ReservoirSample partial(32, seed + 12);
  for (int i = 0; i < 10; ++i) partial.Update(i);
  ReservoirSample full(32, seed + 13);
  for (int i = 0; i < 5000; ++i) full.Update(i * 0.25);
  return {Encode(empty), Encode(partial), Encode(full)};
}

std::vector<std::vector<uint8_t>> CountMinCorpus(uint64_t seed) {
  CountMinSketch empty(4, 64, seed + 14);
  CountMinSketch filled(4, 64, seed + 14);
  for (uint64_t item : CorpusStream(seed + 15)) filled.Update(item);
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> CountSketchCorpus(uint64_t seed) {
  CountSketch empty(4, 64, seed + 16);
  CountSketch filled(4, 64, seed + 16);
  for (uint64_t item : CorpusStream(seed + 17)) filled.Update(item);
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> AmsCorpus(uint64_t seed) {
  AmsSketch empty(5, 32, seed + 18);
  AmsSketch filled(5, 32, seed + 18);
  for (uint64_t item : CorpusStream(seed + 19)) filled.Update(item);
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> BloomCorpus(uint64_t seed) {
  BloomFilter empty(256, 3, seed + 20);
  BloomFilter filled(256, 3, seed + 20);
  for (uint64_t item = 0; item < 200; ++item) filled.Add(item);
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> KmvCorpus(uint64_t seed) {
  // One seed for all entries: KMV merge requires identical (k, seed),
  // and corpus entries must stay pairwise mergeable (merge_payloads).
  KmvSketch empty(64, seed + 21);
  KmvSketch partial(64, seed + 21);
  for (uint64_t item = 0; item < 20; ++item) partial.Add(item);
  KmvSketch full(64, seed + 21);
  for (uint64_t item = 1000; item < 6000; ++item) full.Add(item);
  return {Encode(empty), Encode(partial), Encode(full)};
}

std::vector<std::vector<uint8_t>> DyadicCountMinCorpus(uint64_t seed) {
  DyadicCountMin empty(10, 3, 32, seed + 24);
  DyadicCountMin filled(10, 3, 32, seed + 24);
  Rng rng(seed + 25);
  for (int i = 0; i < 3000; ++i) {
    filled.Update(rng.UniformInt(uint64_t{1} << 10));
  }
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> EpsApproximationCorpus(uint64_t seed) {
  EpsApproximation empty(32, seed + 26, HalvingPolicy::kMorton);
  EpsApproximation filled(32, seed + 27, HalvingPolicy::kMorton);
  Rng rng(seed + 28);
  for (int i = 0; i < 4000; ++i) {
    filled.Update(Point2{rng.UniformDouble(), rng.UniformDouble()});
  }
  return {Encode(empty), Encode(filled)};
}

std::vector<std::vector<uint8_t>> ElasticCountMinCorpus(uint64_t seed) {
  // The empty entry sits at the *widest* width in the corpus: elastic
  // merges fold to the narrower operand, so identity-law checks
  // (empty ∘ x == x) only hold bytewise when the identity never forces
  // a fold of its own. The merged entry carries two live levels — the
  // multi-level wire shape a single stream never produces.
  ElasticCountMin empty(/*depth=*/4, /*width=*/128, seed + 30);
  ElasticCountMin filled(4, 64, seed + 30);
  for (uint64_t item : CorpusStream(seed + 31)) filled.Update(item);
  ElasticCountMin merged(4, 128, seed + 30);
  for (uint64_t item : CorpusStream(seed + 32)) merged.Update(item);
  merged.Merge(filled);
  merged.Expand(128);
  for (uint64_t item : CorpusStream(seed + 33, 500)) merged.Update(item);
  return {Encode(empty), Encode(filled), Encode(merged)};
}

std::vector<std::vector<uint8_t>> ElasticCountSketchCorpus(uint64_t seed) {
  ElasticCountSketch empty(/*depth=*/5, /*width=*/128, seed + 34);
  ElasticCountSketch filled(5, 64, seed + 34);
  for (uint64_t item : CorpusStream(seed + 35)) filled.Update(item);
  ElasticCountSketch merged(5, 128, seed + 34);
  for (uint64_t item : CorpusStream(seed + 36)) merged.Update(item);
  merged.Merge(filled);
  merged.Expand(128);
  for (uint64_t item : CorpusStream(seed + 37, 500)) merged.Update(item);
  return {Encode(empty), Encode(filled), Encode(merged)};
}

std::vector<std::vector<uint8_t>> EpsKernelCorpus(uint64_t seed) {
  EpsKernel empty(16);
  EpsKernel filled(16);
  Rng rng(seed + 29);
  for (int i = 0; i < 2000; ++i) {
    filled.Update(Point2{rng.UniformDouble(), rng.UniformDouble()});
  }
  return {Encode(empty), Encode(filled)};
}

template <typename T>
SummaryCodecInfo MakeEntry(
    std::vector<std::vector<uint8_t>> (*corpus)(uint64_t),
    bool rejects_trailing = true) {
  SummaryCodecInfo info;
  info.tag = SummaryTraits<T>::kTag;
  info.name = SummaryTraits<T>::kName;
  info.mergeable = Mergeable<T>;
  info.rejects_trailing = rejects_trailing;
  info.probe = &Probe<T>;
  info.corpus = corpus;
  info.merge_payloads = &MergePayloads<T>;
  info.fuzz = &Fuzz<T>;
  return info;
}

std::vector<SummaryCodecInfo> BuildRegistry() {
  std::vector<SummaryCodecInfo> registry;
  registry.push_back(MakeEntry<MisraGries>(&MisraGriesCorpus));
  registry.push_back(MakeEntry<SpaceSaving>(&SpaceSavingCorpus));
  registry.push_back(MakeEntry<GkSummary>(&GkCorpus));
  registry.push_back(MakeEntry<MergeableQuantiles>(&MergeableQuantilesCorpus));
  registry.push_back(MakeEntry<QDigest>(&QDigestCorpus));
  registry.push_back(MakeEntry<ReservoirSample>(&ReservoirCorpus));
  // Count-Min tolerates trailing bytes: it is embedded in composite
  // formats (DyadicCountMin) that continue reading past it.
  registry.push_back(
      MakeEntry<CountMinSketch>(&CountMinCorpus, /*rejects_trailing=*/false));
  registry.push_back(MakeEntry<CountSketch>(&CountSketchCorpus));
  registry.push_back(MakeEntry<AmsSketch>(&AmsCorpus));
  registry.push_back(MakeEntry<BloomFilter>(&BloomCorpus));
  registry.push_back(MakeEntry<KmvSketch>(&KmvCorpus));
  registry.push_back(MakeEntry<DyadicCountMin>(&DyadicCountMinCorpus));
  registry.push_back(MakeEntry<EpsApproximation>(&EpsApproximationCorpus));
  registry.push_back(MakeEntry<EpsKernel>(&EpsKernelCorpus));
  registry.push_back(MakeEntry<ElasticCountMin>(&ElasticCountMinCorpus));
  registry.push_back(
      MakeEntry<ElasticCountSketch>(&ElasticCountSketchCorpus));
  return registry;
}

}  // namespace

const std::vector<SummaryCodecInfo>& SummaryRegistry() {
  static const std::vector<SummaryCodecInfo>* registry =
      new std::vector<SummaryCodecInfo>(BuildRegistry());
  return *registry;
}

const SummaryCodecInfo* FindSummaryCodec(SummaryTag tag) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (info.tag == tag) return &info;
  }
  return nullptr;
}

const SummaryCodecInfo* FindSummaryCodec(std::string_view name) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

bool IsRegisteredSummaryTag(uint32_t raw_tag) {
  return FindSummaryCodec(static_cast<SummaryTag>(raw_tag)) != nullptr;
}

}  // namespace mergeable
