// EpochAccumulator<S>: the admitted reports of one open epoch.
//
// A sealed epoch is the canonical fold of whatever reports arrived for
// it (the paper's merge-tree independence makes any arrival order and
// any subset a valid summary), so an open epoch needs exactly one piece
// of state: its admitted reports keyed by shard. This class is the only
// code that knows how they are stored, how a retry is recognised and in
// what order they fold.
//
// A report stays as its validated wire bytes until the seal folds it:
// an entry is (shard, span). Add admits a report whose span still
// points into the caller's frame; before the caller lets go of the
// frame, Keep copies the reports admitted since the last Keep into one
// new block sized to exactly their bytes and points them there. So a
// block holds only this epoch's admitted payloads (never a duplicate's
// or a rejected record's, nor another epoch's), it never moves or
// reallocates, and it is freed when the epoch seals. The entries sit
// in arrival order beside a shard -> position FlatMap
// (util/flat_map.h), both sized once from the shards the epoch
// expects. The shard index doubles as the dedup: a second report from
// an admitted shard is refused and replaces nothing (the first report
// wins). Dedup memory is therefore exactly the pending state, and it
// goes away with the epoch when it seals; a report whose shard a
// topology change drops leaves no dedup key behind.
//
// Seal is the canonical fold (FoldPayloadInto, store/summary_store.h)
// of the reports in ascending shard order, left-deep: the lowest
// shard's report is decoded and each later one merges straight from its
// bytes, with an in-place Canonicalize() after each. The durable
// coordinator folds its reports through the same function in the same
// order, so an epoch sealed here is byte-identical to a
// Coordinator-built one over the same reports.
//
// Not thread-safe: EpochService guards every accumulator with its mutex.

#ifndef MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_
#define MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/check.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

template <WireSummary S>
class EpochAccumulator {
 public:
  // Sized for the shards the epoch expects, so filling it never
  // reallocates.
  explicit EpochAccumulator(uint64_t expected_shards)
      : slot_of_(ReserveFor(expected_shards)) {
    reports_.reserve(ReserveFor(expected_shards));
  }

  // Admits `shard`'s report: `size` bytes at `payload` that
  // ValidPayload<S> accepted. They must stay readable until the next
  // Keep, which takes the accumulator's own copy. False when the shard
  // is already admitted: the pending report stands.
  bool Add(uint64_t shard, const uint8_t* payload, size_t size) {
    if (slot_of_.Find(shard) != nullptr) return false;
    slot_of_.Insert(shard, static_cast<uint32_t>(reports_.size()));
    reports_.push_back(Report{shard, payload, size});
    return true;
  }

  // Copies the payloads admitted since the last Keep into one block of
  // exactly their size and points their reports at it.
  void Keep() {
    size_t bytes = 0;
    for (size_t i = kept_; i < reports_.size(); ++i) {
      bytes += reports_[i].size;
    }
    if (bytes > 0) {
      std::shared_ptr<uint8_t[]> block =
          std::make_shared_for_overwrite<uint8_t[]>(bytes);
      uint8_t* at = block.get();
      for (size_t i = kept_; i < reports_.size(); ++i) {
        std::memcpy(at, reports_[i].payload, reports_[i].size);
        reports_[i].payload = at;
        at += reports_[i].size;
      }
      blocks_.push_back(std::move(block));
      block_bytes_ += bytes;
    }
    kept_ = reports_.size();
  }

  // Drops every report from a shard id >= `shard_count` (a topology
  // change shrank the epoch) and forgets those shards, so a later
  // regrow admits them again. Their bytes stay until the seal frees
  // the blocks. Returns how many reports were dropped. Every report
  // must be kept.
  size_t DropShardsFrom(uint64_t shard_count) {
    MERGEABLE_DCHECK(kept_ == reports_.size());
    const size_t dropped = std::erase_if(
        reports_,
        [shard_count](const Report& report) {
          return report.shard >= shard_count;
        });
    if (dropped == 0) return 0;
    kept_ = reports_.size();
    slot_of_.Clear();
    for (size_t i = 0; i < reports_.size(); ++i) {
      slot_of_.Insert(reports_[i].shard, static_cast<uint32_t>(i));
    }
    return dropped;
  }

  size_t size() const { return reports_.size(); }
  // Bytes of every block Keep made (a dropped report's included).
  size_t payload_bytes() const { return block_bytes_; }

  // Folds the admitted reports into the epoch's result, consuming them.
  // Every report must be kept.
  AggregationResult<S> Seal(uint64_t shards_total) && {
    MERGEABLE_DCHECK(kept_ == reports_.size());
    AggregationResult<S> result;
    result.shards_total = shards_total;
    result.shards_received = reports_.size();
    std::sort(reports_.begin(), reports_.end(),
              [](const Report& a, const Report& b) {
                return a.shard < b.shard;
              });
    for (const Report& report : reports_) {
      FoldPayloadInto(result.summary, report.payload, report.size);
    }
    return result;
  }

 private:
  struct Report {
    uint64_t shard = 0;
    const uint8_t* payload = nullptr;
    size_t size = 0;
  };

  // Pre-sizing is capped: the shard count can come off the wire (TOP1),
  // so it must not drive the allocation alone.
  static size_t ReserveFor(uint64_t expected_shards) {
    return static_cast<size_t>(std::min(expected_shards, uint64_t{1} << 13));
  }

  std::vector<Report> reports_;  // Arrival order until Seal sorts.
  FlatMap<uint32_t> slot_of_;    // shard -> reports_ index
  size_t kept_ = 0;              // reports_[0, kept_) point into blocks_.
  std::vector<std::shared_ptr<const uint8_t[]>> blocks_;
  size_t block_bytes_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_EPOCH_ACCUMULATOR_H_
