// The Misra-Gries (a.k.a. Frequent) summary and its merge operations.
//
// A Misra-Gries summary with capacity c = ceil(1/epsilon) counters
// processes a weighted stream of total weight n and guarantees, for every
// item x with true frequency f(x):
//
//     LowerEstimate(x)  <=  f(x)  <=  LowerEstimate(x) + ErrorBound()
//
// with ErrorBound() <= n / (c + 1) <= epsilon * n. In particular every
// item with f(x) > n / (c + 1) is monitored (classic k-majority with
// k = c + 1).
//
// This is result R1 of Agarwal et al., "Mergeable summaries" (PODS 2012):
// the summary is *fully mergeable* — Merge() combines two summaries of
// capacity c into one of capacity c whose error bound is epsilon * (n1 +
// n2), under arbitrary merge trees. Merge() implements their algorithm
// (combine counters pointwise, then subtract the (c+1)-th largest counter
// value from every counter and drop the non-positive ones).
//
// MergeCafaro() implements the improved merge of Cafaro, Tempesta and
// Pulimeno ("Mergeable Summaries With Low Total Error", Algorithm 2): the
// result equals re-running Frequent over the combined counter multiset in
// ascending count order, which never commits more total error than the
// prune above and usually commits far less. Both merges have the same
// O(c) cost and produce summaries with the same epsilon * n guarantee.
//
// The counters live in a FlatMap (util/flat_map.h) keyed by item, so an
// update is one probe. Prune() refills the map after an O(1) Clear();
// its iteration order is unobservable, since every output sorts.

#ifndef MERGEABLE_FREQUENCY_MISRA_GRIES_H_
#define MERGEABLE_FREQUENCY_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/frequency/counter.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

class MisraGries {
 public:
  // Creates a summary with `capacity` counters (capacity >= 1). With
  // capacity c the frequency error is at most n / (c + 1).
  explicit MisraGries(int capacity);

  // Creates a summary guaranteeing error <= epsilon * n. Requires
  // 0 < epsilon <= 1.
  static MisraGries ForEpsilon(double epsilon);

  // Builds a summary directly from monitored counters over a stream of
  // total weight `n`. Used by the SpaceSaving isomorphism and by tests.
  // Requires counters.size() <= capacity and sum of counts <= n.
  static MisraGries FromCounters(int capacity,
                                 const std::vector<Counter>& counters,
                                 uint64_t n);

  // Processes `weight` occurrences of `item`. Amortized O(1) per unit of
  // weight; worst case O(capacity).
  void Update(uint64_t item, uint64_t weight = 1);

  // Lower bound on the true frequency of `item` (0 if not monitored).
  uint64_t LowerEstimate(uint64_t item) const {
    const uint64_t* count = counters_.Find(item);
    return count != nullptr ? *count : 0;
  }

  // Upper bound on the true frequency of `item`.
  uint64_t UpperEstimate(uint64_t item) const {
    return LowerEstimate(item) + ErrorBound();
  }

  // Maximum possible underestimation of any item's frequency:
  // (n - sum of counters) / (capacity + 1). Always <= n / (capacity + 1).
  uint64_t ErrorBound() const;

  // Total stream weight summarized so far (across merges).
  uint64_t n() const { return n_; }

  int capacity() const { return capacity_; }

  // Number of monitored (nonzero) counters; at most capacity().
  size_t size() const { return counters_.size(); }

  // Monitored counters sorted by descending count.
  std::vector<Counter> Counters() const;

  // Items whose frequency *may* reach `threshold`; guaranteed to contain
  // every item with true frequency >= threshold (no false negatives).
  std::vector<Counter> FrequentItems(uint64_t threshold) const;

  // Merges `other` into this summary (Agarwal et al. prune). Requires
  // identical capacities. Afterwards this summarizes the multiset union
  // with error bound epsilon * (n1 + n2).
  void Merge(const MisraGries& other);

  // What Merge requires to be equal: the capacity. EncodedShape reads it
  // from the header of a payload DecodeFrom accepted, so a service
  // rejects a report of another capacity at admission
  // (store/summary_store.h).
  struct Shape {
    uint32_t capacity = 0;
    bool operator==(const Shape&) const = default;
  };
  Shape shape() const { return {static_cast<uint32_t>(capacity_)}; }
  static Shape EncodedShape(const uint8_t* bytes, size_t size);

  // Merges `other` into this summary with the Cafaro et al. low-total-
  // error algorithm (equivalent to re-running Frequent over the combined
  // counters). Same guarantee and asymptotic cost as Merge().
  void MergeCafaro(const MisraGries& other);

  // Serializes the summary (little-endian, versioned).
  void EncodeTo(ByteWriter& writer) const;

  // Reconstructs a summary from EncodeTo bytes; returns std::nullopt on
  // malformed input (wrong magic, inconsistent counts, trailing bytes).
  static std::optional<MisraGries> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Rebuilds the counter map in wire
  // (item) order at the decoder's table size.
  void Canonicalize();

 private:
  // Reduces the counter set to at most `capacity_` entries by subtracting
  // the (capacity_+1)-th largest counter value from every counter.
  void Prune();

  // Rebuilds state from `counters` fed as weighted updates in ascending
  // count order (the Frequent re-run used by MergeCafaro).
  void RebuildByReplay(std::vector<Counter> counters, uint64_t total_n);

  // The monitored counters in wire order (ascending item).
  std::vector<Counter> CountersByItem() const;

  int capacity_;
  uint64_t n_ = 0;
  FlatMap<uint64_t> counters_;  // item -> count, all counts positive.
};

// The Cafaro et al. closed-form merge (their Algorithm 2) for Frequent
// summaries, operating directly on counter vectors. `s1` and `s2` are the
// monitored counters of two Frequent summaries with k-majority parameter
// `k` (i.e. at most k-1 counters each). Returns the merged counters (at
// most k-1, ascending count order). Exposed separately so tests can check
// it against the replay-based MergeCafaro and against the worked examples
// in the Cafaro paper.
std::vector<Counter> CafaroClosedFormMergeFrequent(std::vector<Counter> s1,
                                                   std::vector<Counter> s2,
                                                   int k);

}  // namespace mergeable

#endif  // MERGEABLE_FREQUENCY_MISRA_GRIES_H_
