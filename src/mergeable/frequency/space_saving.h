// The SpaceSaving summary (Metwally, Agrawal, El Abbadi) and its merges.
//
// A SpaceSaving summary with capacity k = ceil(1/epsilon) counters
// processes a weighted stream of total weight n. While streaming, every
// counter is an upper bound on its item's frequency:
//
//     Count(x) - Overestimate(x)  <=  f(x)  <=  Count(x)
//
// and any unmonitored item has f(x) <= MinCount() <= n / k. Agarwal et
// al. (PODS 2012, result R2) prove SpaceSaving is isomorphic to a
// Misra-Gries summary (subtract the minimum counter from every counter)
// and therefore fully mergeable with the same O(1/epsilon) size and
// epsilon * n error.
//
// Merging generalizes the invariant to a two-sided window
//
//     Count(x) - Overestimate(x)  <=  f(x)  <=  Count(x) + UnderSlack()
//
// where UnderSlack() accumulates the minima subtracted by merges (zero
// while purely streaming) and stays below epsilon * n under arbitrary
// merge trees — this is exactly the paper's MG-domain argument.
//
// Two merge algorithms are provided:
//   * Merge()       — Agarwal et al.: subtract each side's minimum (when
//                     full), combine pointwise, prune with the k-th
//                     largest value (their Frequent merge applied through
//                     the isomorphism).
//   * MergeCafaro() — Cafaro et al. Algorithm 3: after the minima
//                     subtraction, re-run SpaceSaving over the combined
//                     counters in ascending order; provably never more
//                     total error, usually much less.
//
// Hot-path layout (in the spirit of DIM-SUM's amortized updates): the
// counters live in a slot-stable array indexed by a flat open-addressing
// map (FlatMap, util/flat_map.h; an eviction erases without leaving a
// tombstone), and min-maintenance is *deferred*. An increment is a probe
// plus an add — no heap sift, nothing ordered is maintained. Evictions consult a lazy min-heap of (count, item, slot)
// snapshots: stale snapshots (the entry grew since it was pushed) are
// refreshed on pop, and the whole structure is rebuilt in bulk — an O(k)
// scan — when it runs empty or accumulates too many dead copies. Every
// eviction still removes the *exact* minimum under the same
// (count, item) tie-break as a strict heap, so the summary's query-
// visible state is identical to the textbook implementation; only the
// bookkeeping cost moved off the per-update path. Encodings are
// unchanged (same fields, same layout, same validation).
//
// Merges and decodes never touch the heap. Merge() combines both sides
// through this summary's item index into one flat counter array (each
// side's minimum found by a linear scan), prunes with nth_element and
// rewrites the entries and the index; DecodeFrom appends entries and
// index only. Both leave the heap empty, which means "rebuild from all
// entries on first use": a summary that is only merged and encoded
// never pays for it, and the first eviction (or MinCount() on a full
// table) rebuilds it in one O(k) scan. Canonicalize() is therefore a no-op (see its comment).

#ifndef MERGEABLE_FREQUENCY_SPACE_SAVING_H_
#define MERGEABLE_FREQUENCY_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mergeable/frequency/counter.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

class SpaceSaving {
 public:
  // Creates a summary with `capacity` counters. Requires capacity >= 2
  // (the merge algorithms need at least one counter to survive the
  // isomorphism, which drops one).
  explicit SpaceSaving(int capacity);

  // Creates a summary guaranteeing error <= epsilon * n. Requires
  // 0 < epsilon <= 1.
  static SpaceSaving ForEpsilon(double epsilon);

  // Processes `weight` occurrences of `item`. Amortized O(1) for items
  // already monitored (one flat-index probe, one add); evictions pay the
  // deferred min-maintenance described in the header comment.
  void Update(uint64_t item, uint64_t weight = 1);

  // Processes `count` unit-weight items. Equivalent to calling Update on
  // each in order; the batch form exists so ingestion loops stay in
  // cache and skip per-call overhead.
  void UpdateBatch(const uint64_t* items, size_t count);

  // Upper bound on the true frequency of `item`.
  uint64_t UpperEstimate(uint64_t item) const;

  // Lower bound on the true frequency of `item` (0 if not monitored).
  uint64_t LowerEstimate(uint64_t item) const;

  // The raw counter value (0 if not monitored). While streaming this is
  // itself an upper bound on f(item).
  uint64_t Count(uint64_t item) const;

  // Smallest counter value, or 0 if fewer than capacity() items are
  // monitored. While streaming, every unmonitored item has f <= MinCount().
  uint64_t MinCount() const;

  // Accumulated worst-case underestimation from merges; 0 while streaming.
  uint64_t UnderSlack() const { return under_slack_; }

  // Total stream weight summarized so far (across merges).
  uint64_t n() const { return n_; }

  int capacity() const { return capacity_; }

  // Number of monitored counters; at most capacity().
  size_t size() const { return entries_.size(); }

  // Bulk rebuilds the flat item index has performed (exposed so the
  // decode fuzz harness can assert DecodeFrom pre-reserves: a decode
  // must trigger at most one).
  uint64_t index_rebuilds() const { return index_.rebuilds(); }

  // Monitored counters sorted by descending count.
  std::vector<Counter> Counters() const;

  // Items whose frequency may reach `threshold` (no false negatives).
  std::vector<Counter> FrequentItems(uint64_t threshold) const;

  // The Agarwal et al. isomorphism: a Misra-Gries summary with
  // capacity() - 1 counters describing the same stream (subtracts
  // MinCount() from every counter when the summary is full).
  MisraGries ToMisraGries() const;

  // Merges `other` into this summary (Agarwal et al.). Capacities may
  // differ: the larger-capacity side is folded down to the smaller via
  // Resize() first (widening its error budget accordingly), so the
  // result always has capacity min(k1, k2). Byte-deterministic either
  // way around.
  void Merge(const SpaceSaving& other);

  // Merges `other` with the Cafaro et al. low-total-error algorithm.
  // Accepts mismatched capacities under the same fold-to-min rule.
  void MergeCafaro(const SpaceSaving& other);

  // Changes the counter budget in place.
  //
  //   * Growing applies the R2 isomorphism first when the table is
  //     full: the minimum moves into UnderSlack() (a full table's
  //     unmonitored bound is MinCount() + slack; a grown, non-full
  //     table has MinCount() == 0, so the θ floor must survive in the
  //     slack). Error budget widens by exactly that minimum.
  //   * Shrinking prunes in the MG domain with the new capacity's
  //     order statistic, exactly as Merge does: slack widens by
  //     subtracted-min + the k'-th largest combined count
  //     (<= n/k_old + n/k' for the worst case).
  //
  // Requires new_capacity >= 2. Both brackets
  // (LowerEstimate/UpperEstimate) remain valid across the resize.
  void Resize(int new_capacity);

  // Repartitions the summary into `parts` disjoint sub-summaries (each
  // with this capacity): entry (item, count, over) routes to
  // partition(item), which must return a value < parts. Every part's
  // UnderSlack() is the parent's plus the parent's MinCount() — the θ
  // floor an unmonitored item could hide under — so per-part brackets
  // stay valid for the parent stream. The unattributed residual mass
  // n() - Σ counts is split deterministically (floor share, remainder
  // to the lowest-index parts) so the parts' n() sum to the parent's
  // exactly.
  std::vector<SpaceSaving> Split(
      size_t parts, const std::function<size_t(uint64_t)>& partition) const;

  // Serializes the summary (little-endian, versioned). Canonical:
  // entries are written sorted by (count descending, item ascending),
  // so equal summary *states* encode to equal bytes regardless of the
  // update/merge order that produced them.
  void EncodeTo(ByteWriter& writer) const;

  // Reconstructs a summary from EncodeTo bytes; std::nullopt on
  // malformed input.
  static std::optional<SpaceSaving> DecodeFrom(ByteReader& reader);

  // The byte path (store/summary_store.h, MergePayloadInto): a payload
  // merged from its wire bytes, without decoding it into a summary.
  //
  // ValidateEncoded is true exactly when DecodeFrom accepts `bytes` and
  // consumes all of them, duplicate items included. It reads the entries
  // in place and allocates nothing for payloads of up to 512 entries
  // (beyond that, the duplicate check sorts the item ids in one buffer).
  // MergeEncoded leaves the state, and so the bytes, that
  // Merge(*DecodeFrom(bytes)) would, for a payload ValidateEncoded
  // accepts: equal capacities combine the wire entries in place; a
  // different capacity takes Merge's Resize path through a decoded copy.
  static bool ValidateEncoded(const uint8_t* bytes, size_t size);
  void MergeEncoded(const uint8_t* bytes, size_t size);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and
  // equal behavior under further updates and merges. Nothing to do: the
  // only state the round trip could change is the slot order and the
  // heap layout, and neither is observable. Every eviction takes the
  // exact (count, item) minimum; every byte- or list-producing path
  // sorts first (EncodeTo, Counters, FrequentItems, MergeCafaro's
  // ascending replay); and the Merge() prune depends only on the
  // multiset of counts.
  void Canonicalize() {}

 private:
  // DeamortizedSpaceSaving shares this SS01 codec: it encodes through
  // WriteWire and decodes by reading the entries of a DecodeFrom
  // result, and keeps its counters as Entry.
  friend class DeamortizedSpaceSaving;

  struct Entry {
    uint64_t item = 0;
    uint64_t count = 0;
    // Upper bound on how much `count` overestimates the item's frequency
    // (the evicted minimum at assignment time).
    uint64_t over = 0;
  };

  // A snapshot of one entry in the lazy min-heap. Stale when the slot's
  // entry no longer matches (item replaced or count grown).
  struct MinRef {
    uint64_t count = 0;
    uint64_t item = 0;
    uint32_t slot = 0;
  };
  // Strict total order (count, then item) so eviction under ties is
  // deterministic and matches the closed-form merge's positional choice.
  static bool MinRefGreater(const MinRef& a, const MinRef& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.item > b.item;
  }

  // Appends a fresh entry (summary not at capacity) and indexes it. The
  // min-heap must be empty (invalid): the next EnsureMinTop rebuilds it
  // from every entry, so append pushes no snapshot.
  void AppendEntry(uint64_t item, uint64_t count, uint64_t over);

  // Deferred min-maintenance: discards/refreshes stale heap snapshots
  // until the top references the exact current minimum entry, rebuilding
  // the heap in bulk when it runs dry or bloats. Requires entries_
  // non-empty. Returns the minimum's slot.
  uint32_t EnsureMinTop() const;

  // Drops every min-heap snapshot; the next EnsureMinTop rebuilds in
  // bulk. Called by operations that rewrite many counts at once.
  void InvalidateMinHeap() const { min_heap_.clear(); }

  void RebuildMinHeap() const;

  // MinCount() by a linear scan, leaving the min-heap untouched: merges
  // read `other` through a const reference that may be shared across
  // threads, so they must not repair its mutable heap.
  uint64_t ScanMinCount() const;

  // Counters minus the minimum (when full): the MG-domain view used by
  // both merges. Returned in unspecified order, along with the subtracted
  // minimum.
  std::vector<Counter> MgDomainCounters(uint64_t* subtracted_min) const;

  // The equal-capacity merge behind Merge and MergeEncoded. The other
  // side is given by its minimum (0 unless full), n, slack, entry count
  // and `for_each_entry(add)`, which calls add(item, count) for each of
  // its entries in slot order.
  template <typename ForEachEntry>
  void MergeEqualCapacity(uint64_t other_min, uint64_t other_n,
                          uint64_t other_slack, size_t other_size,
                          const ForEachEntry& for_each_entry);

  // Writes an SS01 payload: the header fields, then `entries` in wire
  // order (SortInWireOrder).
  static void WriteWire(ByteWriter& writer, int capacity, uint64_t n,
                        uint64_t under_slack, std::vector<Entry> entries);

  // Sorts entries into the canonical wire order — count descending,
  // ties by item ascending — so equal states encode equal bytes no
  // matter what slot order updates and evictions left behind.
  static void SortInWireOrder(std::vector<Entry>& entries);

  // Replaces the content with `counters` (already MG-domain combined),
  // replayed as SpaceSaving updates in ascending order.
  void RebuildByReplay(std::vector<Counter> counters, uint64_t total_n,
                       uint64_t new_under_slack);

  int capacity_;
  uint64_t n_ = 0;
  uint64_t under_slack_ = 0;
  std::vector<Entry> entries_;  // Slot-stable, unordered.
  FlatMap<uint32_t> index_;     // item -> slot in entries_.
  // Lazy min-heap of entry snapshots (MinRefGreater => min at front);
  // empty over a non-empty table means "rebuild on demand". Mutable:
  // queries like MinCount() repair it without being mutating in any
  // observable sense.
  mutable std::vector<MinRef> min_heap_;
};

// The Cafaro et al. closed-form merge (their Algorithm 3) for SpaceSaving
// summaries with k counters each. Inputs are the raw counters of the two
// summaries (minimum subtraction is performed inside, as in the paper).
// Returns the merged counters (at most k, ascending count order). Exposed
// for tests against MergeCafaro and the paper's worked examples.
std::vector<Counter> CafaroClosedFormMergeSpaceSaving(std::vector<Counter> s1,
                                                      std::vector<Counter> s2,
                                                      int k);

}  // namespace mergeable

#endif  // MERGEABLE_FREQUENCY_SPACE_SAVING_H_
