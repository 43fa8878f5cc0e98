// The range-query planner: typed answers over a DurableStore.
//
// DurableStore<S>::QueryRangePayload produces the canonical payload of
// the merged summary over [t1, t2] plus the range's epsilon report.
// This header turns that payload into answers — point frequency, top-k,
// quantile, distinct count — by decoding it once and asking the summary
// family's native query methods, and resolves "the last w epochs"
// windows onto the same range path. Each planner is constrained (C++20
// requires clauses) to the families that can answer it, so asking a
// quantile sketch for a top-k is a compile error, not a runtime one.
//
// Every answer carries the EpsilonReport of the epochs it covers: the
// native epsilon * n_received bound, widened to the full-stream bound
// by the lost mass of degraded-coverage epochs (epoch_meta.h). The
// planner never hides degradation — callers decide whether a
// 0.96-coverage answer is good enough. The same holds for a range
// crossing a quarantined epoch (durable_store.h): the answer is the
// clamped prefix, and its report carries the whole skipped mass.

#ifndef MERGEABLE_STORE_QUERY_H_
#define MERGEABLE_STORE_QUERY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mergeable/core/concepts.h"
#include "mergeable/frequency/counter.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/epoch_meta.h"

namespace mergeable {

// The merged summary over a range, ready for ad-hoc inspection.
template <WireSummary S>
struct RangeQueryResult {
  S summary;
  EpsilonReport eps;
  QueryStats stats;
};

// Materializes the merged summary for [t1, t2] (absolute epochs, both
// inclusive). std::nullopt when the stream is unknown, the range is not
// fully sealed, or it starts on a quarantined epoch. The summary is
// decoded from the store's canonical payload, so repeated calls observe
// the identical object state.
template <WireSummary S>
std::optional<RangeQueryResult<S>> QueryRange(DurableStore<S>& store,
                                              uint64_t stream, uint64_t t1,
                                              uint64_t t2) {
  std::optional<typename DurableStore<S>::RangeOutcome> outcome =
      store.QueryRangePayload(stream, t1, t2);
  if (!outcome.has_value()) return std::nullopt;
  RangeQueryResult<S> result{DecodeSummaryOrDie<S>(*outcome->payload),
                             outcome->eps, outcome->stats};
  return result;
}

// ---- Point frequency ----

struct PointFrequencyResult {
  uint64_t item = 0;
  // estimate is the family's native answer; [lower, upper] brackets the
  // item's true frequency over the *received* mass. For counter
  // summaries (MisraGries, SpaceSaving) the bracket is deterministic;
  // for hashed sketches (CountMin) the lower end is the estimate minus
  // the received bound and holds with the sketch's own probability.
  uint64_t estimate = 0;
  uint64_t lower = 0;
  uint64_t upper = 0;
  EpsilonReport eps;
  QueryStats stats;
};

// How often `item` appeared in epochs [t1, t2], per the merged summary.
template <WireSummary S>
  requires requires(const S& s, uint64_t item) {
    { s.UpperEstimate(item) } -> std::convertible_to<uint64_t>;
    { s.LowerEstimate(item) } -> std::convertible_to<uint64_t>;
  } || requires(const S& s, uint64_t item) {
    { s.Estimate(item) } -> std::convertible_to<uint64_t>;
  }
std::optional<PointFrequencyResult> QueryPointFrequency(
    DurableStore<S>& store, uint64_t stream, uint64_t t1, uint64_t t2,
    uint64_t item) {
  std::optional<RangeQueryResult<S>> range =
      QueryRange(store, stream, t1, t2);
  if (!range.has_value()) return std::nullopt;
  PointFrequencyResult result;
  result.item = item;
  result.eps = range->eps;
  result.stats = range->stats;
  if constexpr (requires(const S& s) {
                  s.UpperEstimate(item);
                  s.LowerEstimate(item);
                }) {
    result.lower = range->summary.LowerEstimate(item);
    result.upper = range->summary.UpperEstimate(item);
    result.estimate = result.upper;
  } else {
    result.estimate = range->summary.Estimate(item);
    result.upper = result.estimate;
    const uint64_t bound = static_cast<uint64_t>(range->eps.received_bound);
    result.lower = result.estimate > bound ? result.estimate - bound : 0;
  }
  return result;
}

// ---- Top-k heavy hitters ----

struct TopKResult {
  // At most k counters, descending by count (the family's estimate),
  // ties broken by item id — a deterministic order.
  std::vector<Counter> items;
  EpsilonReport eps;
  QueryStats stats;
};

// The k heaviest items of epochs [t1, t2], per the merged summary's
// monitored counters.
template <WireSummary S>
  requires requires(const S& s) {
    { s.Counters() } -> std::convertible_to<std::vector<Counter>>;
  }
std::optional<TopKResult> QueryTopK(DurableStore<S>& store, uint64_t stream,
                                    uint64_t t1, uint64_t t2, size_t k) {
  std::optional<RangeQueryResult<S>> range =
      QueryRange(store, stream, t1, t2);
  if (!range.has_value()) return std::nullopt;
  TopKResult result;
  result.eps = range->eps;
  result.stats = range->stats;
  result.items = range->summary.Counters();
  SortByCountDescending(result.items);
  if (result.items.size() > k) result.items.resize(k);
  return result;
}

// ---- Quantiles ----

struct QuantileResult {
  double phi = 0.0;
  double value = 0.0;     // Item at (approximately) rank phi * n.
  uint64_t n = 0;         // Mass the merged summary observed.
  EpsilonReport eps;
  QueryStats stats;
};

// The phi-quantile (phi in [0, 1]) of epochs [t1, t2].
template <WireSummary S>
  requires requires(const S& s, double phi) {
    { s.Quantile(phi) } -> std::convertible_to<double>;
    { s.n() } -> std::convertible_to<uint64_t>;
  }
std::optional<QuantileResult> QueryQuantile(DurableStore<S>& store,
                                            uint64_t stream, uint64_t t1,
                                            uint64_t t2, double phi) {
  std::optional<RangeQueryResult<S>> range =
      QueryRange(store, stream, t1, t2);
  if (!range.has_value()) return std::nullopt;
  QuantileResult result;
  result.phi = phi;
  result.value = range->summary.Quantile(phi);
  result.n = range->summary.n();
  result.eps = range->eps;
  result.stats = range->stats;
  return result;
}

// ---- Distinct count ----

struct DistinctCountResult {
  double estimate = 0.0;
  EpsilonReport eps;
  QueryStats stats;
};

// Approximate number of distinct items in epochs [t1, t2].
template <WireSummary S>
  requires requires(const S& s) {
    { s.EstimateDistinct() } -> std::convertible_to<double>;
  }
std::optional<DistinctCountResult> QueryDistinctCount(DurableStore<S>& store,
                                                      uint64_t stream,
                                                      uint64_t t1,
                                                      uint64_t t2) {
  std::optional<RangeQueryResult<S>> range =
      QueryRange(store, stream, t1, t2);
  if (!range.has_value()) return std::nullopt;
  DistinctCountResult result;
  result.estimate = range->summary.EstimateDistinct();
  result.eps = range->eps;
  result.stats = range->stats;
  return result;
}

// ---- Windows: "the last w epochs" ----
//
// A window is the absolute range [last - w + 1, last], clamped to the
// stream's sealed history, served by the same range path as any
// [t1, t2] query. The seal writes its leaf and nodes through the node
// cache (durable_store.h), so the newest part of the tree a window
// folds is usually resident.

// Resolves the window to the absolute range it covers. Works on any
// store with HasStream/BaseEpoch/EpochCount (DurableStore, or a wrapper
// forwarding to one). std::nullopt when the stream is unknown or w == 0.
template <typename Store>
std::optional<std::pair<uint64_t, uint64_t>> ResolveWindow(
    const Store& store, uint64_t stream, uint64_t w) {
  if (w == 0 || !store.HasStream(stream)) return std::nullopt;
  const uint64_t base = store.BaseEpoch(stream);
  const uint64_t count = store.EpochCount(stream);
  const uint64_t clamped = std::min<uint64_t>(w, count);
  return std::make_pair(base + count - clamped, base + count - 1);
}

template <WireSummary S>
  requires requires(DurableStore<S>& s) {
    QueryPointFrequency(s, 0, 0, 0, 0);
  }
std::optional<PointFrequencyResult> QueryWindowPointFrequency(
    DurableStore<S>& store, uint64_t stream, uint64_t w, uint64_t item) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryPointFrequency(store, stream, range->first, range->second,
                             item);
}

template <WireSummary S>
  requires requires(DurableStore<S>& s) { QueryTopK(s, 0, 0, 0, 0); }
std::optional<TopKResult> QueryWindowTopK(DurableStore<S>& store,
                                          uint64_t stream, uint64_t w,
                                          size_t k) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryTopK(store, stream, range->first, range->second, k);
}

template <WireSummary S>
  requires requires(DurableStore<S>& s) { QueryQuantile(s, 0, 0, 0, 0.5); }
std::optional<QuantileResult> QueryWindowQuantile(DurableStore<S>& store,
                                                  uint64_t stream, uint64_t w,
                                                  double phi) {
  const auto range = ResolveWindow(store, stream, w);
  if (!range.has_value()) return std::nullopt;
  return QueryQuantile(store, stream, range->first, range->second, phi);
}

}  // namespace mergeable

#endif  // MERGEABLE_STORE_QUERY_H_
