// Deamortized heavy hitters: strict O(1) worst-case per-update cost.
//
// SpaceSaving (space_saving.h) is amortized O(1): the flat index and the
// lazy min-heap defer maintenance, but an unlucky update still pays an
// O(k) heap rebuild, which is exactly the p999 spike the ingest server
// benches surfaced. This class removes the spike with the two-table
// scheme of IM-SUM/DIM-SUM (Anderson et al.): updates touch only a
// small *active* table with a bounded number of primitive steps — one
// index probe, at most one append, plus a fixed maintenance quota —
// while a *passive* table frozen at the last swap is compacted
// incrementally, off the hot path.
//
// The algorithm, in Misra-Gries terms (counts are lower bounds):
//
//   * Let k = guarantee() counters back the epsilon = 1/(k+1) bound; the
//     table capacity is C = 2k. Updates probe the active table only: a
//     hit adds the weight, a miss appends a fresh counter (count =
//     weight, an exact count so far). When the active table reaches C
//     entries it becomes the passive table (frozen — never probed, never
//     modified by updates) and a fresh active table starts empty.
//   * The maintenance pass drains the frozen table in two incremental
//     phases, a few primitive steps per update. SELECT streams the C
//     counts through a (k+1)-slot min-heap to find m, the (k+1)-th
//     largest count. COPY then walks the entries once: a count <= m is
//     discarded, a count > m survives with count - m, added back into
//     the active table (combining additively if the item re-entered).
//     This is a batch form of Misra-Gries' decrement: at least k+1
//     counters each give up m, so the decrements telescope to
//     sum(m_i) <= n / (k+1) <= epsilon * n, and at most k counters can
//     exceed m — the active table always has room for the survivors.
//   * theta = UnderSlack() accumulates the subtracted m's (plus the
//     merge prunes): every tracked item obeys
//         Count(x) <= f(x) <= Count(x) + theta,
//     every untracked item f(x) <= theta, and theta <= epsilon * n.
//
// The quota arithmetic behind the worst-case bound: a drain costs
// exactly 2C = 4k primitive steps (C select + C copy), every update
// contributes kMaintenanceQuota = 8 steps while a drain is pending, and
// refilling the active table takes at least C - k = k fresh inserts —
// so the drain finishes within the first k/2 updates after a swap, with
// 2x margin, before the next swap can possibly be needed. Updates
// therefore never wait on maintenance; `maintenance_stalls()` counts
// the defensive path and stays zero. Both tables are indexed by a
// FlatMap (util/flat_map.h), whose Clear() is a generation bump, so a
// swap resets the fresh active index in O(1) as well.
//
// Queries and the codec see the *effective* state — active counters
// plus the not-yet-drained survivors at count - m — which is a pure
// function of the update history, independent of drain progress. The
// codec is SpaceSaving's (space_saving.cc): EncodeTo writes the
// effective state through its SS01 writer, sorted canonically, so an
// instance drained in any interleaving encodes byte-identically;
// DecodeFrom and ValidateEncoded accept exactly the payloads
// SpaceSaving's do. The summary therefore drops into the registry,
// wire batteries, store, and server as SummaryTag::kSpaceSaving
// unchanged. (Decoding a *full* SpaceSaving payload applies the
// Agarwal et al. R2 isomorphism — subtract the minimum counter, fold
// it into theta — converting overestimating counts into this class's
// lower-bound form.)

#ifndef MERGEABLE_FREQUENCY_DEAMORTIZED_SPACE_SAVING_H_
#define MERGEABLE_FREQUENCY_DEAMORTIZED_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mergeable/frequency/counter.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

class DeamortizedSpaceSaving {
 public:
  // Maintenance steps donated by each update while a drain is pending.
  // A drain costs 2C = 4k steps and at least k updates separate swaps,
  // so 8 covers the drain with 2x margin (see the header comment).
  static constexpr size_t kMaintenanceQuota = 8;

  // Creates a summary whose encoded capacity field is (canonically) the
  // table capacity C = 2 * guarantee. `capacity` is interpreted like the
  // SS01 codec's capacity field: guarantee k = max(2, ceil(capacity/2)).
  explicit DeamortizedSpaceSaving(int capacity);

  // Creates a summary guaranteeing error <= epsilon * n (it uses
  // 2 * ceil(1/epsilon) counters — the deamortized design trades 2x
  // space for the worst-case bound). Requires 0 < epsilon <= 1.
  static DeamortizedSpaceSaving ForEpsilon(double epsilon);

  // Processes `weight` occurrences of `item` in strict O(1) worst case:
  // one active-table probe, at most one append, at most
  // kMaintenanceQuota maintenance steps (each O(log k)).
  void Update(uint64_t item, uint64_t weight = 1);

  // Processes `count` unit-weight items, equivalent to updating each.
  void UpdateBatch(const uint64_t* items, size_t count);

  // The effective counter value: a lower bound on f(item), 0 if not
  // tracked. f(item) <= Count(item) + UnderSlack() always.
  uint64_t Count(uint64_t item) const;

  // Upper bound on the true frequency of `item`.
  uint64_t UpperEstimate(uint64_t item) const;

  // Lower bound on the true frequency of `item` (0 if not tracked).
  uint64_t LowerEstimate(uint64_t item) const;

  // Accumulated decrement mass (batch Misra-Gries decrements + merge
  // prunes): the two-sided error window, always <= epsilon * n.
  uint64_t UnderSlack() const { return theta_ + EffectiveM(); }

  // Total stream weight summarized so far (across merges).
  uint64_t n() const { return n_; }

  // The error guarantee parameter k: theta <= n / (k + 1).
  int guarantee() const { return guarantee_; }

  // The table capacity C = 2k, also the encoded capacity field.
  int capacity() const { return table_capacity_; }

  // Number of effective (distinct tracked) counters; at most capacity().
  size_t size() const;

  // Effective counters sorted by descending count.
  std::vector<Counter> Counters() const;

  // Items whose frequency may reach `threshold` (no false negatives:
  // untracked items have f <= UnderSlack() < threshold whenever
  // threshold > UnderSlack()).
  std::vector<Counter> FrequentItems(uint64_t threshold) const;

  // Merges `other` into this summary: combines effective counters,
  // prunes with the (k+1)-th largest combined value v (each side of the
  // paper's Frequent merge), theta += v. Guarantees may differ: the
  // larger-k side folds down to the smaller via Resize() first, so the
  // result always carries guarantee min(k1, k2).
  void Merge(const DeamortizedSpaceSaving& other);

  // Changes the counter budget in place; `new_capacity` is interpreted
  // like the constructor's (guarantee k' = max(2, ceil(capacity/2)),
  // table capacity 2k'). Growing keeps every effective counter and
  // leaves theta unchanged (counts are lower bounds — no isomorphism
  // needed, unlike SpaceSaving::Resize). Shrinking prunes with the
  // (k'+1)-th largest effective count v and folds v into theta — the
  // θ-floor widening, mirroring one side of Merge. The post-resize
  // bracket is always Count(x) <= f(x) <= Count(x) + UnderSlack();
  // after shrinks UnderSlack() may exceed the new nominal n/(k'+1) —
  // the telescoped widened budget is the honest bound.
  void Resize(int new_capacity);

  // Repartitions into `parts` disjoint summaries with this geometry:
  // effective entry (item, count, over) routes to partition(item)
  // (must be < parts). Each part's theta starts at the parent's
  // UnderSlack() — the floor an untracked item could hide under — and
  // the unattributed residual n() - Σ counts splits deterministically
  // (floor share, remainder to lowest-index parts) so part n()'s sum
  // to the parent's exactly.
  std::vector<DeamortizedSpaceSaving> Split(
      size_t parts, const std::function<size_t(uint64_t)>& partition) const;

  // Serializes the effective state as an SS01 payload (sorted
  // canonically — byte-identical across drain interleavings).
  void EncodeTo(ByteWriter& writer) const;

  // Reconstructs a summary from any valid SS01 payload (this class's or
  // SpaceSaving's); std::nullopt on malformed input.
  static std::optional<DeamortizedSpaceSaving> DecodeFrom(ByteReader& reader);

  // True exactly when DecodeFrom accepts `bytes` and consumes all of
  // them: SpaceSaving's in-place check (store/summary_store.h).
  static bool ValidateEncoded(const uint8_t* bytes, size_t size) {
    return SpaceSaving::ValidateEncoded(bytes, size);
  }

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Folds the pending drain into one
  // sorted active table, as the decoder builds it.
  void Canonicalize();

  // ---- Maintenance surface (benches, tests) ----

  // Runs up to `steps` primitive maintenance steps; returns true when
  // the drain is complete (or none was pending).
  bool MaintenanceStep(size_t steps);

  // Drains the passive table to completion.
  void FinishMaintenance();

  // Table swaps performed (one per C - survivors fresh inserts).
  uint64_t swaps() const { return swaps_; }

  // Times an update had to finish a drain synchronously because the
  // active table filled first. The quota arithmetic keeps this at zero;
  // nonzero means the update bound was violated — tests assert on it.
  uint64_t maintenance_stalls() const { return stalls_; }

 private:
  // SpaceSaving's counter, the unit of the shared codec. Its `over` is
  // zero for natively created counters (they are exact-then-decremented
  // lower bounds) and nonzero only via decoded SpaceSaving payloads.
  using Entry = SpaceSaving::Entry;

  enum class Phase : uint8_t { kIdle, kSelect, kCopy };

  // The pending batch decrement: m once selected, the same order
  // statistic computed on the fly (and cached) while SELECT is still
  // running, 0 when no drain is pending.
  uint64_t EffectiveM() const;

  // The effective counters: active combined with undrained survivors.
  // A pure function of the update history (drain-progress-independent).
  std::vector<Entry> EffectiveEntries() const;

  // Looks up the item's undrained passive contribution (count - m), or
  // 0. `m` must be EffectiveM().
  uint64_t PassivePending(uint64_t item, uint64_t m, uint64_t* over) const;

  void AppendActive(uint64_t item, uint64_t count, uint64_t over);

  // Drops both tables and any pending drain, then holds `entries` cut
  // at v (each count above v survives as count - v) with theta_ =
  // `theta`: the common tail of Merge, Resize and Canonicalize.
  void ResetTo(const std::vector<Entry>& entries, uint64_t v, uint64_t theta);

  // Freezes the active table as the new passive table and starts the
  // incremental drain. Requires the previous drain to have finished.
  void Swap();

  // Feeds one count into the (k+1)-slot selection heap.
  void PushSelect(uint64_t count);

  // Moves one surviving passive entry into the active table.
  void CopySurvivor(const Entry& entry);

  int guarantee_;       // k: error bound n / (k + 1).
  int table_capacity_;  // C = 2k.
  uint64_t n_ = 0;
  uint64_t theta_ = 0;  // Completed decrement mass (excludes pending m).
  uint64_t swaps_ = 0;
  uint64_t stalls_ = 0;

  std::vector<Entry> active_;
  FlatMap<uint32_t> active_index_;
  std::vector<Entry> passive_;  // Frozen; logically consumed prefix
                                // [0, drain_pos_) already copied/dropped.
  FlatMap<uint32_t> passive_index_;  // item -> slot in passive_ (stale
                                     // slots filtered by drain_pos_).

  Phase phase_ = Phase::kIdle;
  size_t select_pos_ = 0;  // Next passive entry SELECT will visit.
  size_t drain_pos_ = 0;   // Next passive entry COPY will visit.
  uint64_t m_ = 0;         // The selected decrement (valid in kCopy).
  std::vector<uint64_t> select_heap_;  // Min-heap of the k+1 largest.

  // Queries during SELECT compute m eagerly; the passive table is
  // frozen, so the value is cached for the rest of the phase.
  mutable uint64_t cached_select_m_ = 0;
  mutable bool select_m_cached_ = false;
};

}  // namespace mergeable

#endif  // MERGEABLE_FREQUENCY_DEAMORTIZED_SPACE_SAVING_H_
