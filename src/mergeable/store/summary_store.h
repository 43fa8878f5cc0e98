// The summary store's shared vocabulary: the canonical encode, decode
// and fold every store path uses, the payloads of its leaf and node
// records, and the option, deadline and statistics structs. The store
// itself is DurableStore<S> (durable_store.h).
//
// Determinism rests on one function here, FoldPayloadInto: every
// canonical value is the left-deep canonical fold of its inputs in
// order — an epoch over its reports by shard, a node over (left, right),
// a range over its cover by epoch — where canonical(s) is
// s.Canonicalize(), equal to the encode-then-decode fixed point.

#ifndef MERGEABLE_STORE_SUMMARY_STORE_H_
#define MERGEABLE_STORE_SUMMARY_STORE_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/core/concepts.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"

namespace mergeable {

// The summary's canonical encoding.
template <WireSummary S>
std::vector<uint8_t> EncodeSummary(const S& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

// Decodes bytes this process (or a healthy peer) encoded itself, or
// bytes ValidPayload<S> accepted; a failure is a codec bug, not bad
// input, so it aborts.
template <WireSummary S>
S DecodeSummaryOrDie(const uint8_t* payload, size_t size) {
  ByteReader reader(payload, size);
  std::optional<S> summary = S::DecodeFrom(reader);
  MERGEABLE_CHECK_MSG(summary.has_value() && reader.Exhausted(),
                      "self-produced summary payload must decode");
  return std::move(*summary);
}
template <WireSummary S>
S DecodeSummaryOrDie(const std::vector<uint8_t>& payload) {
  return DecodeSummaryOrDie<S>(payload.data(), payload.size());
}

// The canonical form of `summary`: S::Canonicalize(), which equals the
// encode-then-decode fixed point without the round trip. Codecs that do
// not serialize incidental state (RNG positions, slot layout) re-derive
// it from content, so two summaries with equal canonical form evolve
// identically under further merges — the property every deterministic-
// replay path here relies on (see aggregate/coordinator.h, which
// maintains the same form for crash recovery).
template <WireSummary S>
S CanonicalForm(S summary) {
  summary.Canonicalize();
  return summary;
}

// One step of the canonical fold with `from` already decoded: absorb
// it, then re-canonize in place. FoldPayloadInto takes the same step
// from bytes; this form is for callers that hold decoded summaries.
template <WireSummary S>
void CanonicalMergeInto(S& into, const S& from) {
  into.Merge(from);
  into.Canonicalize();
}

// The byte path: a payload folded from its wire bytes, without a
// decoded summary per payload. A type opts in with
//
//   static bool ValidateEncoded(const uint8_t*, size_t);
//   void MergeEncoded(const uint8_t*, size_t);
//
// (SpaceSaving, CountMinSketch; DeamortizedSpaceSaving validates only),
// and may add
//
//   struct Shape { ...; bool operator==(const Shape&) const; };
//   Shape shape() const;
//   static Shape EncodedShape(const uint8_t*, size_t);
//
// when its Merge requires matching parameters (CountMinSketch,
// MisraGries, the elastic sketches). Every other type takes the generic fallbacks below
// (decode, then Merge; every shape matches), so these functions serve
// every registered type with the same results.

// Whether `size` bytes at `payload` are exactly one encoding of S:
// S::DecodeFrom accepts them and leaves nothing over.
template <WireSummary S>
bool ValidPayload(const uint8_t* payload, size_t size) {
  if constexpr (requires { S::ValidateEncoded(payload, size); }) {
    return S::ValidateEncoded(payload, size);
  } else {
    ByteReader reader(payload, size);
    return S::DecodeFrom(reader).has_value() && reader.Exhausted();
  }
}

// into.Merge(decoded payload), for a payload ValidPayload<S> accepted
// and PayloadMergeableInto allows: the same state, so the same bytes.
template <WireSummary S>
void MergePayloadInto(S& into, const uint8_t* payload, size_t size) {
  if constexpr (requires { into.MergeEncoded(payload, size); }) {
    into.MergeEncoded(payload, size);
  } else {
    into.Merge(DecodeSummaryOrDie<S>(payload, size));
  }
}

// Types whose Merge requires matching parameters, which a valid payload
// can fail: they name those parameters as S::Shape.
template <typename S>
concept ChecksPayloadShape =
    requires(const S& summary, const uint8_t* payload, size_t size) {
      { summary.shape() } -> std::same_as<typename S::Shape>;
      { S::EncodedShape(payload, size) } -> std::same_as<typename S::Shape>;
    };

// S::Shape for the types that check it; an empty stand-in for the rest.
template <typename S>
struct PayloadShape {
  using type = std::monostate;
};
template <ChecksPayloadShape S>
struct PayloadShape<S> {
  using type = typename S::Shape;
};

// Whether a valid payload may merge into `into`: false when the type's
// Merge would refuse (abort on) its parameters, such as a Count-Min of
// another shape or seed. Types without a Shape accept every payload.
template <WireSummary S>
bool PayloadMergeableInto(const S& into, const uint8_t* payload,
                          size_t size) {
  if constexpr (ChecksPayloadShape<S>) {
    return into.shape() == S::EncodedShape(payload, size);
  } else {
    return true;
  }
}

// The one canonical fold: every fold in the system (an epoch's seal, a
// tree node, a range answer, the registry's merge_payloads, the
// coordinator) is a left-deep sequence of these steps over its inputs
// in order. The first payload is decoded and canonicalized; each later
// one merges into `fold` straight from its bytes (MergePayloadInto),
// then re-canonicalizes in place. The payload must be one ValidPayload<S>
// accepted and PayloadMergeableInto allows.
template <WireSummary S>
void FoldPayloadInto(std::optional<S>& fold, const uint8_t* payload,
                     size_t size) {
  if (fold.has_value()) {
    MergePayloadInto(*fold, payload, size);
  } else {
    fold.emplace(DecodeSummaryOrDie<S>(payload, size));
  }
  fold->Canonicalize();
}

// A stored record's payload. The SEG1 frame (segment.h) is its only
// envelope — it carries the key and the length, and its checksum covers
// every byte — so the payload holds only what the frame does not:
//
//   node (level >= 1):  u32 tag | summary bytes
//   leaf (level 0):     u32 tag | u64 epoch | u64 n | u64 shards_total |
//                       u64 shards_received | u64 lost_mass |
//                       u32 lost_mass_estimated (0 or 1) | summary bytes
//
// The tag is the store's SummaryTraits<S>::kTag; the summary runs to
// the end of the payload.
inline constexpr size_t kRecordTagBytes = 4;
// The tag and the six EpochMeta fields ahead of a leaf's summary.
inline constexpr size_t kLeafHeaderBytes = kRecordTagBytes + 5 * 8 + 4;

// The SEG1 frame of a node record under (stream, level, index): the
// tag, then the summary, each written once, into the frame.
inline std::vector<uint8_t> EncodeNodeFrame(uint64_t stream, uint32_t level,
                                            uint64_t index, SummaryTag tag,
                                            std::span<const uint8_t> summary) {
  FrameWriter frame = StartSegmentFrame(stream, level, index,
                                        kRecordTagBytes + summary.size());
  frame.PutU32(static_cast<uint32_t>(tag));
  frame.PutRaw(summary.data(), summary.size());
  return std::move(frame).Seal();
}

// The SEG1 frame of the leaf record of epoch index `index`: the tag, the
// metadata, then the summary, each written once, into the frame.
inline std::vector<uint8_t> EncodeLeafFrame(uint64_t stream, uint64_t index,
                                            SummaryTag tag,
                                            const EpochMeta& meta,
                                            std::span<const uint8_t> summary) {
  FrameWriter frame =
      StartSegmentFrame(stream, 0, index, kLeafHeaderBytes + summary.size());
  frame.PutU32(static_cast<uint32_t>(tag));
  frame.PutU64(meta.epoch);
  frame.PutU64(meta.n);
  frame.PutU64(meta.shards_total);
  frame.PutU64(meta.shards_received);
  frame.PutU64(meta.lost_mass);
  frame.PutU32(meta.lost_mass_estimated ? 1 : 0);
  frame.PutRaw(summary.data(), summary.size());
  return std::move(frame).Seal();
}

// A node record's summary bytes, in place; std::nullopt when the
// payload does not start with `tag`.
inline std::optional<std::span<const uint8_t>> ViewNodeRecord(
    const uint8_t* bytes, size_t size, SummaryTag tag) {
  ByteReader reader(bytes, size);
  uint32_t stored_tag = 0;
  if (!reader.GetU32(&stored_tag) ||
      stored_tag != static_cast<uint32_t>(tag)) {
    return std::nullopt;
  }
  return std::span<const uint8_t>(bytes + kRecordTagBytes,
                                  size - kRecordTagBytes);
}

// A leaf record parsed in place: `summary` points into the viewed bytes
// and is valid only while they are.
struct LeafRecordView {
  EpochMeta meta;
  const uint8_t* summary = nullptr;
  size_t summary_size = 0;
};

// std::nullopt when the payload is shorter than the metadata, carries
// another tag, or holds metadata no writer produces (lost_mass_estimated
// above 1, more shards received than a nonzero total). The bytes passed
// the frame's checksum, but they come from storage, so decoding never
// aborts.
inline std::optional<LeafRecordView> ViewLeafRecord(const uint8_t* bytes,
                                                    size_t size,
                                                    SummaryTag tag) {
  ByteReader reader(bytes, size);
  LeafRecordView leaf;
  uint32_t stored_tag = 0;
  uint32_t estimated = 0;
  if (!reader.GetU32(&stored_tag) ||
      stored_tag != static_cast<uint32_t>(tag) ||
      !reader.GetU64(&leaf.meta.epoch) || !reader.GetU64(&leaf.meta.n) ||
      !reader.GetU64(&leaf.meta.shards_total) ||
      !reader.GetU64(&leaf.meta.shards_received) ||
      !reader.GetU64(&leaf.meta.lost_mass) || !reader.GetU32(&estimated) ||
      estimated > 1 ||
      (leaf.meta.shards_received > leaf.meta.shards_total &&
       leaf.meta.shards_total != 0)) {
    return std::nullopt;
  }
  leaf.meta.lost_mass_estimated = estimated == 1;
  leaf.summary_size = reader.remaining();
  leaf.summary = bytes + (size - leaf.summary_size);
  return leaf;
}

// Serving knobs.
struct StoreOptions {
  // No effect: the segment files live under DurableStoreOptions::prefix.
  // Kept only because perfbench/src/workload.cc sets it.
  std::string prefix = "store";
  // Maximum entries in the merged-summary cache (tree nodes and range
  // results share it).
  size_t cache_capacity = 128;
  // The summary family's native error parameter; range queries report
  // bounds in terms of it (EpsilonReport).
  double epsilon = 0.01;
  // No effect: the store folds on the querying thread. Kept only
  // because perfbench/src/workload.cc sets it.
  int num_threads = 1;
};

// Deadline budget for a bounded range query. Time is virtual: the
// query charges `cost_per_node_ms` against `budget_ms` for every
// covering node it materializes and merges, which keeps tests and the
// chaos harness deterministic (a slow-merge injection is just a large
// cost) while modeling exactly the decision a wall-clock deadline
// forces: stop merging, answer with what you have, widen epsilon by
// what you skipped.
struct QueryDeadline {
  // Virtual milliseconds available; UINT64_MAX = unbounded.
  uint64_t budget_ms = ~uint64_t{0};
  // Virtual cost charged per covering node (fetch + merge).
  uint64_t cost_per_node_ms = 0;
};

// What one range query cost (per-query mirror of the global counters).
struct QueryStats {
  uint64_t nodes_merged = 0;      // Covering nodes fetched (0 if warm).
  uint64_t merges_performed = 0;  // Summary Merge calls for this query.
  uint64_t node_cache_hits = 0;
  uint64_t node_cache_misses = 0;
  uint64_t bytes_read = 0;        // Storage bytes fetched.
  bool range_cache_hit = false;   // The whole answer was memoized.
};

// Cumulative serving counters.
struct StoreStats {
  uint64_t epochs_sealed = 0;
  uint64_t nodes_built = 0;    // Internal nodes materialized (and rebuilt).
  uint64_t node_merges = 0;    // Merge calls for tree maintenance.
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_SUMMARY_STORE_H_
