// The tree-free reference for store answers: a range's value recomputed
// from the leaf payloads alone, using only the store's two defining
// equations (node = canonical fold of (left, right); range = canonical
// fold of the dyadic cover, left-deep in epoch order). No store, no
// persistence, no cache, no incremental state.

#ifndef MERGEABLE_TESTS_STORE_REFERENCE_RANGE_H_
#define MERGEABLE_TESTS_STORE_REFERENCE_RANGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mergeable/store/dyadic.h"
#include "mergeable/store/summary_store.h"

namespace mergeable {

// The canonical payload over leaf indices [lo, hi] of `leaves` (one
// encoded summary per leaf index).
template <typename T>
std::vector<uint8_t> ReferenceRange(
    const std::vector<std::vector<uint8_t>>& leaves, uint64_t lo,
    uint64_t hi) {
  std::function<std::vector<uint8_t>(const DyadicNode&)> value =
      [&](const DyadicNode& node) -> std::vector<uint8_t> {
    if (node.level == 0) return leaves[node.index];
    T merged = DecodeSummaryOrDie<T>(
        value(DyadicNode{node.level - 1, node.index * 2}));
    const T sibling = DecodeSummaryOrDie<T>(
        value(DyadicNode{node.level - 1, node.index * 2 + 1}));
    CanonicalMergeInto(merged, sibling);
    return EncodeSummary(merged);
  };
  const std::vector<DyadicNode> cover = DyadicCover(lo, hi);
  T merged = CanonicalForm(DecodeSummaryOrDie<T>(value(cover.front())));
  for (size_t i = 1; i < cover.size(); ++i) {
    CanonicalMergeInto(merged, DecodeSummaryOrDie<T>(value(cover[i])));
  }
  return EncodeSummary(merged);
}

}  // namespace mergeable

#endif  // MERGEABLE_TESTS_STORE_REFERENCE_RANGE_H_
