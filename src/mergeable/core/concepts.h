// C++20 concepts naming the contracts the merge framework relies on.
//
// Kept deliberately small (see the style guide's advice on concepts):
// they only encode what the compiler can verify and what the merge
// drivers in merge_driver.h actually require.

#ifndef MERGEABLE_CORE_CONCEPTS_H_
#define MERGEABLE_CORE_CONCEPTS_H_

#include <concepts>
#include <optional>

#include "mergeable/util/bytes.h"

namespace mergeable {

// A summary that can absorb another summary of the same type. The
// semantic contract (not compiler-checkable): after s.Merge(o), s
// summarizes the multiset union of the two inputs within the documented
// error bound, and its size bound is unchanged.
template <typename S>
concept Mergeable = std::movable<S> && requires(S s, const S& other) {
  s.Merge(other);
};

// A mergeable summary that is built by streaming items of type Item.
template <typename S, typename Item>
concept StreamSummary = Mergeable<S> && requires(S s, Item item) {
  s.Update(item);
};

// A type with a summary wire format: it serializes to bytes and
// reconstructs from them, rejecting malformed input via std::nullopt
// rather than aborting. The decode fuzzer (aggregate/fuzz.h) fuzzes any
// WireCodec — including one-way-mergeable summaries like GK that have
// no Merge.
template <typename S>
concept WireCodec = requires(const S cs, ByteWriter writer,
                             ByteReader reader) {
  cs.EncodeTo(writer);
  { S::DecodeFrom(reader) } -> std::same_as<std::optional<S>>;
};

// A mergeable summary that can cross a machine boundary — what the
// aggregation coordinator (aggregate/coordinator.h), the store and the
// server require. It also puts itself in canonical form in place: after
// s.Canonicalize(), s is indistinguishable from the decode of its own
// encoding — equal bytes, and equal behavior under further updates and
// merges, because state the codec does not write (RNG positions, slot
// and table layout, pending-maintenance counters) is re-derived from
// the content exactly as DecodeFrom derives it. Byte-determinism of
// every merge tree rests on this (DESIGN §10.2); merge_property_test
// checks it against the encode-then-decode round trip for every codec.
template <typename S>
concept WireSummary = Mergeable<S> && WireCodec<S> && requires(S s) {
  s.Canonicalize();
};

}  // namespace mergeable

#endif  // MERGEABLE_CORE_CONCEPTS_H_
