// EpochAccumulator<S>: the admitted reports of one open epoch.
//
// A sealed epoch is the canonical fold of whatever reports arrived for
// it (the paper's merge-tree independence makes any arrival order and
// any subset a valid summary), so an open epoch needs exactly one piece
// of state: its admitted reports keyed by shard. This class is the only
// code that knows how they are stored, how a retry is recognised and in
// what order they fold.
//
// Storage is flat: the decoded reports in arrival order plus a
// shard -> position FlatMap (util/flat_map.h), both sized once from the
// shards the epoch expects, so admission allocates nothing per report
// beyond the decoded summary. The shard index doubles as the dedup: a
// second report from an admitted shard is refused and replaces nothing
// (the first report wins). Dedup memory is therefore exactly the pending
// state, and it goes away with the epoch when it seals; a report whose
// shard a topology change drops leaves no dedup key behind.
//
// Seal folds in ascending shard order, left-deep, each step a Merge
// followed by an in-place Canonicalize() (CanonicalMergeInto) — the
// exact merge the durable coordinator performs, so an epoch sealed here
// is byte-identical to a Coordinator-built one over the same reports.
//
// Not thread-safe: EpochService guards every accumulator with its mutex.

#ifndef MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_
#define MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

template <WireSummary S>
class EpochAccumulator {
 public:
  // Sized for the shards the epoch expects, so filling it never
  // reallocates (peak memory stays at one copy of the reports).
  explicit EpochAccumulator(uint64_t expected_shards)
      : slot_of_(ReserveFor(expected_shards)) {
    reports_.reserve(ReserveFor(expected_shards));
  }

  // Admits `shard`'s report. False when the shard is already admitted:
  // the pending report stands and `summary` is discarded.
  bool Add(uint64_t shard, S summary) {
    if (slot_of_.Find(shard) != nullptr) return false;
    slot_of_.Insert(shard, static_cast<uint32_t>(reports_.size()));
    reports_.emplace_back(shard, std::move(summary));
    return true;
  }

  // Drops every report from a shard id >= `shard_count` (a topology
  // change shrank the epoch) and forgets those shards, so a later
  // regrow admits them again. Returns how many reports were dropped.
  size_t DropShardsFrom(uint64_t shard_count) {
    const size_t dropped = std::erase_if(
        reports_,
        [shard_count](const auto& report) {
          return report.first >= shard_count;
        });
    if (dropped == 0) return 0;
    slot_of_.Clear();
    for (size_t i = 0; i < reports_.size(); ++i) {
      slot_of_.Insert(reports_[i].first, static_cast<uint32_t>(i));
    }
    return dropped;
  }

  size_t size() const { return reports_.size(); }

  // Folds the admitted reports into the epoch's result, consuming them.
  AggregationResult<S> Seal(uint64_t shards_total) && {
    AggregationResult<S> result;
    result.shards_total = shards_total;
    // (shard, position), sorted: the fold order without moving a
    // summary.
    std::vector<std::pair<uint64_t, uint32_t>> order;
    order.reserve(reports_.size());
    for (size_t i = 0; i < reports_.size(); ++i) {
      order.emplace_back(reports_[i].first, static_cast<uint32_t>(i));
    }
    std::sort(order.begin(), order.end());
    for (const auto& [shard, index] : order) {
      S& summary = reports_[index].second;
      ++result.shards_received;
      if (result.summary.has_value()) {
        CanonicalMergeInto(*result.summary, summary);
      } else {
        result.summary = CanonicalForm(std::move(summary));
      }
    }
    return result;
  }

 private:
  // Pre-sizing is capped: the shard count can come off the wire (TOP1),
  // so it must not drive the allocation alone.
  static size_t ReserveFor(uint64_t expected_shards) {
    return static_cast<size_t>(std::min(expected_shards, uint64_t{1} << 13));
  }

  std::vector<std::pair<uint64_t, S>> reports_;  // (shard, summary)
  FlatMap<uint32_t> slot_of_;                    // shard -> reports_ index
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_
