#include "mergeable/frequency/counter.h"

#include "mergeable/util/flat_map.h"

namespace mergeable {

std::vector<Counter> CombineCounters(const std::vector<Counter>& a,
                                     const std::vector<Counter>& b) {
  FlatMap<uint64_t> combined(a.size() + b.size());
  for (const Counter& c : a) combined[c.item] += c.count;
  for (const Counter& c : b) combined[c.item] += c.count;
  std::vector<Counter> result;
  result.reserve(combined.size());
  combined.ForEach([&result](uint64_t item, uint64_t count) {
    result.push_back(Counter{item, count});
  });
  return result;
}

}  // namespace mergeable
