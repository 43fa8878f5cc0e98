#include "mergeable/sketch/dyadic_count_min.h"

#include <algorithm>
#include <cmath>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"

namespace mergeable {
namespace {

std::vector<CountMinSketch> MakeLevels(int log_universe, int depth, int width,
                                       uint64_t seed) {
  std::vector<CountMinSketch> levels;
  levels.reserve(static_cast<size_t>(log_universe) + 1);
  for (int level = 0; level <= log_universe; ++level) {
    levels.emplace_back(depth, width,
                        MixHash(static_cast<uint64_t>(level), seed));
  }
  return levels;
}

}  // namespace

DyadicCountMin::DyadicCountMin(int log_universe, int depth, int width,
                               uint64_t seed)
    : log_universe_(log_universe),
      levels_(MakeLevels(log_universe, depth, width, seed)) {
  MERGEABLE_CHECK_MSG(log_universe >= 1 && log_universe <= 32,
                      "log_universe must be in [1, 32]");
}

DyadicCountMin DyadicCountMin::ForEpsilonDelta(double epsilon, double delta,
                                               int log_universe,
                                               uint64_t seed) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon < 1.0,
                      "epsilon must be in (0, 1)");
  // A range decomposes into <= 2 * log_universe intervals, so each
  // level must be accurate to epsilon / (2 log u).
  const double per_level = epsilon / (2.0 * log_universe);
  const int width = std::max(
      1, static_cast<int>(std::ceil(std::exp(1.0) / per_level)));
  const int depth = std::max(
      1, static_cast<int>(std::ceil(std::log(
             static_cast<double>(2 * log_universe) / delta))));
  return DyadicCountMin(log_universe, depth, width, seed);
}

void DyadicCountMin::Update(uint64_t value, uint64_t weight) {
  MERGEABLE_CHECK_MSG(value < (uint64_t{1} << log_universe_),
                      "value outside the universe");
  if (weight == 0) return;
  n_ += weight;
  for (int level = 0; level <= log_universe_; ++level) {
    levels_[static_cast<size_t>(level)].Update(value >> level, weight);
  }
}

uint64_t DyadicCountMin::RangeCount(uint64_t lo, uint64_t hi) const {
  MERGEABLE_CHECK_MSG(lo <= hi && hi < (uint64_t{1} << log_universe_),
                      "invalid range");
  // Greedy dyadic decomposition: repeatedly peel the largest aligned
  // block that starts at lo and fits in [lo, hi].
  uint64_t total = 0;
  while (lo <= hi) {
    int level = 0;
    // Grow the block while it stays aligned and inside the range.
    while (level < log_universe_ && (lo & ((uint64_t{2} << level) - 1)) == 0 &&
           lo + (uint64_t{2} << level) - 1 <= hi) {
      ++level;
    }
    total += levels_[static_cast<size_t>(level)].Estimate(lo >> level);
    const uint64_t block = uint64_t{1} << level;
    if (lo + block - 1 == ~uint64_t{0}) break;  // Defensive; cannot occur.
    lo += block;
    if (lo == 0) break;  // Wrapped (only if hi spans the whole space).
  }
  return total;
}

uint64_t DyadicCountMin::Quantile(double phi) const {
  MERGEABLE_CHECK_MSG(n_ > 0, "Quantile of empty sketch");
  auto target = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(n_)));
  if (target < 1) target = 1;
  uint64_t lo = 0;
  uint64_t hi = (uint64_t{1} << log_universe_) - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Rank(mid) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void DyadicCountMin::Merge(const DyadicCountMin& other) {
  MERGEABLE_CHECK_MSG(log_universe_ == other.log_universe_,
                      "DyadicCountMin merge requires identical universe");
  for (size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].Merge(other.levels_[level]);
  }
  n_ += other.n_;
}

size_t DyadicCountMin::TotalCounters() const {
  size_t total = 0;
  for (const CountMinSketch& level : levels_) {
    total += static_cast<size_t>(level.depth()) *
             static_cast<size_t>(level.width());
  }
  return total;
}

namespace {
constexpr uint32_t kDyadicMagic = 0x32304344;  // "DC02"
}  // namespace

void DyadicCountMin::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kDyadicMagic);
  writer.PutU32(static_cast<uint32_t>(log_universe_));
  writer.PutU64(n_);
  for (const CountMinSketch& level : levels_) level.EncodeTo(writer);
}

std::optional<DyadicCountMin> DyadicCountMin::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t log_universe = 0;
  uint64_t n = 0;
  if (!reader.GetU32(&magic) || magic != kDyadicMagic) return std::nullopt;
  if (!reader.GetU32(&log_universe) || log_universe < 1 ||
      log_universe > 32) {
    return std::nullopt;
  }
  if (!reader.GetU64(&n)) return std::nullopt;

  std::vector<CountMinSketch> levels;
  levels.reserve(log_universe + 1);
  int depth = 0;
  int width = 0;
  for (uint32_t level = 0; level <= log_universe; ++level) {
    auto sketch = CountMinSketch::DecodeFrom(reader);
    if (!sketch.has_value()) return std::nullopt;
    if (level == 0) {
      depth = sketch->depth();
      width = sketch->width();
    } else if (sketch->depth() != depth || sketch->width() != width) {
      return std::nullopt;  // Levels must share one shape.
    }
    levels.push_back(std::move(*sketch));
  }
  if (!reader.Exhausted()) return std::nullopt;
  DyadicCountMin result(static_cast<int>(log_universe), depth, width,
                        /*seed=*/0);
  result.levels_ = std::move(levels);
  result.n_ = n;
  return result;
}

}  // namespace mergeable
