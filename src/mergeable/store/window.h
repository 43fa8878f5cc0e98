// Sliding-window serving: "the last w epochs" without touching storage.
//
// The store's dyadic tree already answers any range [t1, t2] in
// O(log len) merges, but a serving tier asking "top-k over the last
// hour" on every dashboard refresh pays a storage round-trip (or at
// best a cache probe) per covering node. This header keeps the recent
// suffix of the tree resident: a SlidingWindowRing holds the last W
// leaf payloads and every internal dyadic node that fits inside the
// window, built from the same children with the same canonical merge
// the store uses. A window query folds the suffix cover
// DyadicCover(n - w, n - 1) through MergeAllWith(kBalancedTree,
// CanonicalMergeInto) — the exact fold SummaryStore::MergeCover
// performs — so a ring answer is byte-for-byte identical to the store
// answering the same range (window_test asserts it against explicit
// leaf merges as well).
//
// Error accounting is the store's own: the ring keeps the EpochMeta of
// every resident epoch and reports AccumulateEpsilon over the covered
// suffix, so a degraded epoch inside the window widens the bound
// exactly as it would through SummaryStore::QueryRangePayload.
//
// Coverage is tracked, not assumed: a ring attached to a stream that
// already has history (warm restart) only serves windows that lie
// entirely inside what it was fed; anything older returns std::nullopt
// and the caller falls back to the store. The ring never guesses.
//
// Indices are store-relative (0 = the stream's first sealed epoch),
// matching the store's internal dyadic axis, which is what makes the
// per-node payloads interchangeable with the store's files.

#ifndef MERGEABLE_STORE_WINDOW_H_
#define MERGEABLE_STORE_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mergeable/core/merge_driver.h"
#include "mergeable/store/dyadic.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/query.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/check.h"

namespace mergeable {

template <WireSummary S>
class SlidingWindowRing {
 public:
  // A window answer: the canonical merged payload over store-relative
  // epoch indices [lo, hi], with the range's epsilon report.
  struct Outcome {
    std::vector<uint8_t> payload;
    EpsilonReport eps;
    uint64_t lo = 0;  // Store-relative index of the oldest covered epoch.
    uint64_t hi = 0;  // Newest covered epoch; hi - lo + 1 == w.
    uint64_t nodes_merged = 0;  // Covering nodes folded for the answer.
  };

  // `capacity` = W, the largest window (in epochs) the ring can answer.
  // `epsilon` is the summary family's native error parameter, as in
  // StoreOptions::epsilon — used only for the EpsilonReport.
  SlidingWindowRing(uint64_t capacity, double epsilon)
      : capacity_(capacity), epsilon_(epsilon) {
    MERGEABLE_CHECK_MSG(capacity >= 1, "window capacity must be >= 1");
    MERGEABLE_CHECK_MSG(epsilon > 0.0, "window epsilon must be positive");
    // Levels whose node width exceeds W never appear in a cover of a
    // range of length <= W (cover nodes are no wider than the range).
    uint32_t max_level = 0;
    while ((uint64_t{1} << (max_level + 1)) <= capacity_) ++max_level;
    levels_.resize(max_level + 1);
  }

  // Feeds the seal of store-relative epoch `index`: the leaf payload
  // enters the level-0 ring and every dyadic node the seal completes
  // (the same carry chain the store builds) is computed from its
  // resident children via the canonical merge. Seals must arrive in
  // order and contiguously; the first call fixes where the ring's
  // history starts (any earlier epoch is permanently "not covered").
  void OnSeal(uint64_t index, const S& summary, const EpochMeta& meta) {
    if (!first_index_.has_value()) {
      first_index_ = index;
      next_index_ = index;
    }
    MERGEABLE_CHECK_MSG(index == next_index_,
                        "window ring seals must be contiguous and in order");
    next_index_ = index + 1;
    levels_[0][index] = EncodeSummary<S>(summary);
    metas_.emplace_back(meta);
    // NodesCompletedBySeal yields ascending levels, so each node's
    // children (one level down) are already resident when it is built.
    for (const DyadicNode& node : NodesCompletedBySeal(index)) {
      if (node.level >= levels_.size()) break;  // Wider than any window.
      if (node.first() < *first_index_) continue;  // Children never fed.
      const auto& children = levels_[node.level - 1];
      const auto left = children.find(node.index * 2);
      const auto right = children.find(node.index * 2 + 1);
      if (left == children.end() || right == children.end()) continue;
      S merged = DecodeSummaryOrDie<S>(left->second);
      const S sibling = DecodeSummaryOrDie<S>(right->second);
      CanonicalMergeInto(merged, sibling);
      levels_[node.level][node.index] = EncodeSummary<S>(merged);
      ++nodes_built_;
    }
    Prune();
  }

  // Answers "the last w epochs": the canonical payload of the merged
  // summary over [next - w, next - 1], byte-identical to the store
  // merging the same range. std::nullopt when the ring cannot cover the
  // window — w == 0, w > capacity, or the window reaches past the first
  // epoch the ring was fed (warm-restart gap); the caller then falls
  // back to the store, which can.
  std::optional<Outcome> Query(uint64_t w) const {
    if (w == 0 || w > capacity_ || !first_index_.has_value()) {
      return std::nullopt;
    }
    if (next_index_ - *first_index_ < w) return std::nullopt;
    Outcome outcome;
    outcome.hi = next_index_ - 1;
    outcome.lo = next_index_ - w;
    const std::vector<DyadicNode> cover = DyadicCover(outcome.lo, outcome.hi);
    std::vector<const std::vector<uint8_t>*> payloads;
    payloads.reserve(cover.size());
    for (const DyadicNode& node : cover) {
      if (node.level >= levels_.size()) return std::nullopt;
      const auto& ring = levels_[node.level];
      const auto it = ring.find(node.index);
      if (it == ring.end()) return std::nullopt;
      payloads.push_back(&it->second);
    }
    outcome.nodes_merged = cover.size();
    // The store's MergeCover fold, verbatim: a single node's payload is
    // returned as-is, more fold through the balanced canonical
    // reduction. Byte-identity with the store hinges on this match.
    if (payloads.size() == 1) {
      outcome.payload = *payloads.front();
    } else {
      std::vector<S> parts;
      parts.reserve(payloads.size());
      for (const std::vector<uint8_t>* payload : payloads) {
        parts.push_back(DecodeSummaryOrDie<S>(*payload));
      }
      S merged = MergeAllWith(std::move(parts), MergeTopology::kBalancedTree,
                              [](S& into, const S& from) {
                                CanonicalMergeInto(into, from);
                              });
      outcome.payload = EncodeSummary<S>(merged);
    }
    const uint64_t base = next_index_ - metas_.size();
    outcome.eps = AccumulateEpsilon(metas_, outcome.lo - base,
                                    outcome.hi - base, epsilon_);
    return outcome;
  }

  // Whether Query(w) can answer from resident state.
  bool Covers(uint64_t w) const {
    return w >= 1 && w <= capacity_ && first_index_.has_value() &&
           next_index_ - *first_index_ >= w;
  }

  uint64_t capacity() const { return capacity_; }
  // Store-relative index the next OnSeal must carry.
  uint64_t next_index() const { return next_index_; }
  // Internal dyadic nodes built since construction.
  uint64_t nodes_built() const { return nodes_built_; }
  // Resident payloads across all levels (leaves + internal nodes).
  size_t resident_nodes() const {
    size_t n = 0;
    for (const auto& ring : levels_) n += ring.size();
    return n;
  }

 private:
  // Drops nodes that no window of length <= W ending at the newest
  // epoch can ever use again. Each seal adds O(log W) nodes, so the
  // erase loop is amortized O(log W) per seal and residency stays at
  // ~2W payloads.
  void Prune() {
    if (next_index_ < capacity_) return;
    const uint64_t floor = next_index_ - capacity_;  // Oldest useful epoch.
    for (uint32_t level = 0; level < levels_.size(); ++level) {
      auto& ring = levels_[level];
      while (!ring.empty()) {
        const DyadicNode node{level, ring.begin()->first};
        if (node.last() >= floor) break;
        ring.erase(ring.begin());
      }
    }
    const uint64_t meta_base = next_index_ - metas_.size();
    if (meta_base < floor) {
      metas_.erase(metas_.begin(),
                   metas_.begin() + static_cast<ptrdiff_t>(floor - meta_base));
    }
  }

  uint64_t capacity_;
  double epsilon_;
  // levels_[l]: store-relative node index -> canonical payload, for
  // every resident dyadic node of width 2^l inside the window.
  std::vector<std::map<uint64_t, std::vector<uint8_t>>> levels_;
  // Metas of the resident epochs [next_index_ - metas_.size(),
  // next_index_), densely, for AccumulateEpsilon.
  std::vector<EpochMeta> metas_;
  std::optional<uint64_t> first_index_;
  uint64_t next_index_ = 0;
  uint64_t nodes_built_ = 0;
};

// ---- Window planner sugar over a SummaryStore ----
//
// "The last w epochs" as absolute range [last - w + 1, last], clamped
// to the stream's sealed history, forwarded to the query.h planners.
// std::nullopt when the stream is unknown or w == 0.

// Resolves the window to the absolute range it covers.
template <WireSummary S>
std::optional<std::pair<uint64_t, uint64_t>> ResolveWindow(
    SummaryStore<S>& store, uint64_t stream, uint64_t w) {
  if (w == 0 || !store.HasStream(stream)) return std::nullopt;
  const uint64_t base = store.BaseEpoch(stream);
  const uint64_t last = base + store.EpochCount(stream) - 1;
  const uint64_t clamped = std::min<uint64_t>(w, last - base + 1);
  return std::make_pair(last + 1 - clamped, last);
}

template <WireSummary S>
std::optional<RangeQueryResult<S>> QueryWindowRange(SummaryStore<S>& store,
                                                    uint64_t stream,
                                                    uint64_t w) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryRange(store, stream, range->first, range->second);
}

template <WireSummary S>
  requires requires(SummaryStore<S>& s) {
    QueryPointFrequency(s, 0, 0, 0, 0);
  }
std::optional<PointFrequencyResult> QueryWindowPointFrequency(
    SummaryStore<S>& store, uint64_t stream, uint64_t w, uint64_t item) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryPointFrequency(store, stream, range->first, range->second,
                             item);
}

template <WireSummary S>
  requires requires(SummaryStore<S>& s) { QueryTopK(s, 0, 0, 0, 0); }
std::optional<TopKResult> QueryWindowTopK(SummaryStore<S>& store,
                                          uint64_t stream, uint64_t w,
                                          size_t k) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryTopK(store, stream, range->first, range->second, k);
}

template <WireSummary S>
  requires requires(SummaryStore<S>& s) { QueryQuantile(s, 0, 0, 0, 0.5); }
std::optional<QuantileResult> QueryWindowQuantile(SummaryStore<S>& store,
                                                  uint64_t stream, uint64_t w,
                                                  double phi) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryQuantile(store, stream, range->first, range->second, phi);
}

}  // namespace mergeable

#endif  // MERGEABLE_STORE_WINDOW_H_
