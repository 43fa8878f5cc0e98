// Sample statistics for the benchmark's end-to-end metrics.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

// The q-th percentile (q in [0, 100]) with linear interpolation between
// closest ranks: position q/100 * (n - 1) in sorted order, the same
// definition as spans.py's percentile(). Reorders `samples`; NaN when
// there are none.
inline double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  const double low = samples[lo];
  if (lo + 1 >= samples.size()) return low;
  const double high =
      *std::min_element(samples.begin() + lo + 1, samples.end());
  return low + (high - low) * (pos - static_cast<double>(lo));
}

// Samples strictly above the q-th percentile: what a p99 rests on.
inline size_t SamplesBeyond(std::vector<double>& samples, double q) {
  const double cut = Percentile(samples, q);
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(), [cut](double v) { return v > cut; }));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
