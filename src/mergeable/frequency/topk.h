// Top-k extraction with per-item guarantees from counter summaries.
//
// A counter summary only bounds each frequency to a window
// [lower, upper], so "the top k items" has three useful answers:
//
//   * guaranteed  — items whose LOWER bound beats the (k+1)-th largest
//                   UPPER bound: they are in the true top k no matter
//                   how the adversary resolves the windows;
//   * candidates  — items whose UPPER bound beats the k-th largest
//                   LOWER bound: nothing outside this set can be in the
//                   true top k (no false negatives);
//   * the ranked list of point estimates, which is what dashboards show.
//
// Works with any summary exposing Counters() plus LowerEstimate /
// UpperEstimate (MisraGries, SpaceSaving).

#ifndef MERGEABLE_FREQUENCY_TOPK_H_
#define MERGEABLE_FREQUENCY_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mergeable/frequency/counter.h"

namespace mergeable {

// One top-k result entry.
struct TopKEntry {
  uint64_t item = 0;
  uint64_t lower = 0;  // Guaranteed minimum frequency.
  uint64_t upper = 0;  // Guaranteed maximum frequency.
  // True when this item is provably among the k most frequent.
  bool guaranteed = false;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.item == b.item && a.lower == b.lower && a.upper == b.upper &&
           a.guaranteed == b.guaranteed;
  }
};

// Extracts a superset of the true top-k from `summary` (no false
// negatives among monitored items), ranked by upper estimate, with the
// `guaranteed` flag computed as described above. Returns at most
// summary.size() entries and at least min(k, summary.size()).
template <typename Summary>
std::vector<TopKEntry> TopK(const Summary& summary, size_t k) {
  std::vector<TopKEntry> entries;
  for (const Counter& counter : summary.Counters()) {
    TopKEntry entry;
    entry.item = counter.item;
    entry.lower = summary.LowerEstimate(counter.item);
    entry.upper = summary.UpperEstimate(counter.item);
    entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.upper != b.upper) return a.upper > b.upper;
              return a.item < b.item;
            });

  // Threshold for candidacy: the k-th largest lower bound. Anything
  // whose upper bound cannot reach it is provably outside the top k.
  uint64_t kth_lower = 0;
  if (entries.size() >= k && k > 0) {
    std::vector<uint64_t> lowers;
    lowers.reserve(entries.size());
    for (const TopKEntry& entry : entries) lowers.push_back(entry.lower);
    std::nth_element(lowers.begin(),
                     lowers.begin() + static_cast<ptrdiff_t>(k - 1),
                     lowers.end(), std::greater<uint64_t>());
    kth_lower = lowers[k - 1];
  }

  // Threshold for certainty: the (k+1)-th largest upper bound. An item
  // whose lower bound strictly beats every possible (k+1)-th competitor
  // is guaranteed top-k.
  uint64_t next_upper = 0;
  if (entries.size() > k) next_upper = entries[k].upper;

  std::vector<TopKEntry> result;
  for (const TopKEntry& entry : entries) {
    if (entry.upper < kth_lower) continue;  // Provably outside.
    TopKEntry kept = entry;
    kept.guaranteed = entries.size() <= k || entry.lower > next_upper;
    result.push_back(kept);
  }
  return result;
}

}  // namespace mergeable

#endif  // MERGEABLE_FREQUENCY_TOPK_H_
