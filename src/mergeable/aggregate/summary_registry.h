// The summary codec registry: one table mapping summary type tag <->
// codec <-> corpus factory <-> merge fn for every wire format in the
// library.
//
// Several subsystems need to enumerate or dispatch over "every summary
// type with a wire format": the decode fuzzer feeds each codec mutated
// inputs, the corrupt-input suite runs its rejection battery over each,
// the tagged-payload envelope (wire.h) validates type tags from
// untrusted bytes, and the summary store (store/) persists
// self-describing node payloads. Before this registry each of those
// sites hand-maintained its own list of the 14 codecs; adding a summary
// type meant finding and editing every copy. Now a type is registered
// once here — tag, name, capabilities, a deterministic corpus factory,
// a type-erased payload merge and a fuzz entry point — and every
// consumer iterates the same table.
//
// Tags are wire-stable: they appear in persisted store records, so an
// existing value must never be renumbered. New types append.

#ifndef MERGEABLE_AGGREGATE_SUMMARY_REGISTRY_H_
#define MERGEABLE_AGGREGATE_SUMMARY_REGISTRY_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mergeable/aggregate/fuzz.h"

namespace mergeable {

class MisraGries;
class SpaceSaving;
class GkSummary;
class MergeableQuantiles;
class QDigest;
class ReservoirSample;
class CountMinSketch;
class CountSketch;
class AmsSketch;
class BloomFilter;
class KmvSketch;
class DyadicCountMin;
class EpsApproximation;
class EpsKernel;
class DeamortizedSpaceSaving;
class ElasticCountMin;
class ElasticCountSketch;

// Wire-stable identifier of a summary type. Values are persisted (store
// node records, tagged payloads); never renumber, only append.
enum class SummaryTag : uint32_t {
  kMisraGries = 1,
  kSpaceSaving = 2,
  kGkSummary = 3,
  kMergeableQuantiles = 4,
  kQDigest = 5,
  kReservoir = 6,
  kCountMin = 7,
  kCountSketch = 8,
  kAms = 9,
  kBloom = 10,
  kKmv = 11,
  kDyadicCountMin = 12,
  kEpsApproximation = 13,
  kEpsKernel = 14,
  kElasticCountMin = 15,
  kElasticCountSketch = 16,
};

// Compile-time side of the mapping: the tag and display name of a
// summary type, usable from templated code (DurableStore<S> stamps
// SummaryTraits<S>::kTag into every node record it writes).
template <typename S>
struct SummaryTraits;  // Specialized below for every registered type.

#define MERGEABLE_SUMMARY_TRAITS(type, tag_value)        \
  template <>                                            \
  struct SummaryTraits<type> {                           \
    static constexpr SummaryTag kTag = tag_value;        \
    static constexpr const char* kName = #type;          \
  }

MERGEABLE_SUMMARY_TRAITS(MisraGries, SummaryTag::kMisraGries);
MERGEABLE_SUMMARY_TRAITS(SpaceSaving, SummaryTag::kSpaceSaving);
MERGEABLE_SUMMARY_TRAITS(GkSummary, SummaryTag::kGkSummary);
MERGEABLE_SUMMARY_TRAITS(MergeableQuantiles, SummaryTag::kMergeableQuantiles);
MERGEABLE_SUMMARY_TRAITS(QDigest, SummaryTag::kQDigest);
MERGEABLE_SUMMARY_TRAITS(ReservoirSample, SummaryTag::kReservoir);
MERGEABLE_SUMMARY_TRAITS(CountMinSketch, SummaryTag::kCountMin);
MERGEABLE_SUMMARY_TRAITS(CountSketch, SummaryTag::kCountSketch);
MERGEABLE_SUMMARY_TRAITS(AmsSketch, SummaryTag::kAms);
MERGEABLE_SUMMARY_TRAITS(BloomFilter, SummaryTag::kBloom);
MERGEABLE_SUMMARY_TRAITS(KmvSketch, SummaryTag::kKmv);
MERGEABLE_SUMMARY_TRAITS(DyadicCountMin, SummaryTag::kDyadicCountMin);
MERGEABLE_SUMMARY_TRAITS(EpsApproximation, SummaryTag::kEpsApproximation);
MERGEABLE_SUMMARY_TRAITS(EpsKernel, SummaryTag::kEpsKernel);

// DeamortizedSpaceSaving reads, writes and validates SS01 through
// SpaceSaving's codec, so it reuses the same wire-stable tag: stores
// written by one decode under the other, and the registry row for
// kSpaceSaving covers its bytes. It is deliberately NOT a separate
// registry entry — the registry enumerates wire formats, not in-memory
// implementations.
MERGEABLE_SUMMARY_TRAITS(DeamortizedSpaceSaving, SummaryTag::kSpaceSaving);

MERGEABLE_SUMMARY_TRAITS(ElasticCountMin, SummaryTag::kElasticCountMin);
MERGEABLE_SUMMARY_TRAITS(ElasticCountSketch, SummaryTag::kElasticCountSketch);

#undef MERGEABLE_SUMMARY_TRAITS

// The run-time side: one type-erased entry per registered codec.
struct SummaryCodecInfo {
  SummaryTag tag;
  const char* name;
  // False for one-way-mergeable formats (GK): MergePayloads refuses.
  bool mergeable;
  // False for formats embedded in composite encodings (Count-Min), which
  // deliberately tolerate trailing bytes; the corrupt-input battery
  // skips the trailing-garbage must-reject case for those.
  bool rejects_trailing;

  // Whether DecodeFrom accepts `bytes` (exhaustion is the decoder's own
  // business, matching the corrupt-input battery's contract).
  bool (*probe)(const std::vector<uint8_t>& bytes);

  // A deterministic corpus of real encodings — empty, filled, and (for
  // mergeable types) merged instances, so every structural variant is
  // represented. `seed` varies the content, not the shape; entries of
  // one corpus are pairwise merge-compatible.
  std::vector<std::vector<uint8_t>> (*corpus)(uint64_t seed);

  // The canonical fold of (a, b) — FoldPayloadInto over a, then b
  // (store/summary_store.h), the fold every seal, tree node and range
  // answer uses — returned as its encoding. Both payloads are checked
  // with ValidPayload first; std::nullopt when either is rejected or the
  // type is not mergeable. Payloads must be shape-compatible (same
  // parameters), as for the summary's own Merge.
  std::optional<std::vector<uint8_t>> (*merge_payloads)(
      const std::vector<uint8_t>& a, const std::vector<uint8_t>& b);

  // Runs the decode-fuzz harness (FuzzDecode<T>) for this codec.
  FuzzStats (*fuzz)(const std::vector<std::vector<uint8_t>>& corpus,
                    uint64_t iterations, uint64_t seed);
};

// Every registered codec, in tag order. The table is built once and
// never mutated; iterating it is how "for every summary type" is spelt.
const std::vector<SummaryCodecInfo>& SummaryRegistry();

// Registry lookups; nullptr when the tag / name is unknown. Raw u32
// overload serves decoders validating tags read from untrusted bytes.
const SummaryCodecInfo* FindSummaryCodec(SummaryTag tag);
const SummaryCodecInfo* FindSummaryCodec(std::string_view name);
bool IsRegisteredSummaryTag(uint32_t raw_tag);

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_SUMMARY_REGISTRY_H_
