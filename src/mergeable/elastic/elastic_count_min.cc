#include "mergeable/elastic/elastic_count_min.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {
namespace {

constexpr uint32_t kElasticCountMinMagic = 0x314d4345;  // "ECM1"
constexpr uint32_t kMaxWidth = 1u << 28;
// Distinct power-of-two widths in [1, 2^28] — bounds the level count
// against hostile payloads.
constexpr uint32_t kMaxLevels = 29;

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

std::vector<PolynomialHash> MakeRowHashes(int depth, uint64_t seed) {
  std::vector<PolynomialHash> hashes;
  hashes.reserve(static_cast<size_t>(depth));
  for (int row = 0; row < depth; ++row) {
    hashes.emplace_back(/*degree=*/2,
                        MixHash(static_cast<uint64_t>(row), seed));
  }
  return hashes;
}

}  // namespace

ElasticCountMin::ElasticCountMin(int depth, int width, uint64_t seed)
    : ElasticCountMin(depth, width, seed, {}) {}

ElasticCountMin::ElasticCountMin(int depth, int width, uint64_t seed,
                                 std::vector<Level> levels)
    : depth_(depth), width_(width), seed_(seed),
      hashes_(MakeRowHashes(depth, seed)), levels_(std::move(levels)) {
  MERGEABLE_CHECK_MSG(depth >= 1 && depth <= 64,
                      "ElasticCountMin needs depth in [1, 64]");
  MERGEABLE_CHECK_MSG(width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(width)),
                      "ElasticCountMin width must be a power of two");
  MERGEABLE_CHECK_MSG(static_cast<uint32_t>(width) <= kMaxWidth,
                      "ElasticCountMin width too large");
  if (levels_.empty() ||
      levels_.back().width != static_cast<uint32_t>(width)) {
    Level level;
    level.width = static_cast<uint32_t>(width);
    level.counters.assign(static_cast<size_t>(depth) * width, 0);
    levels_.push_back(std::move(level));
  }
}

ElasticCountMin ElasticCountMin::ForEpsilonDelta(double epsilon, double delta,
                                                 uint64_t seed) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon < 1.0,
                      "epsilon must be in (0, 1)");
  MERGEABLE_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  const double target = std::exp(1.0) / epsilon;
  int width = 1;
  while (width < target && static_cast<uint32_t>(width) < kMaxWidth) {
    width <<= 1;
  }
  const int depth =
      std::max(1, static_cast<int>(std::ceil(std::log(1.0 / delta))));
  return ElasticCountMin(depth, width, seed);
}

void ElasticCountMin::Update(uint64_t item, uint64_t weight) {
  // The current level is always the widest (see Shrink/Expand/Merge).
  Level& level = levels_.back();
  const uint64_t w = level.width;
  for (int row = 0; row < depth_; ++row) {
    const uint64_t bucket = hashes_[static_cast<size_t>(row)](item) % w;
    level.counters[static_cast<size_t>(row) * w + bucket] += weight;
  }
  level.mass += weight;
  n_ += weight;
}

uint64_t ElasticCountMin::Estimate(uint64_t item) const {
  uint64_t best = ~uint64_t{0};
  for (int row = 0; row < depth_; ++row) {
    const uint64_t hash = hashes_[static_cast<size_t>(row)](item);
    uint64_t sum = 0;
    for (const Level& level : levels_) {
      sum += level.counters[static_cast<size_t>(row) * level.width +
                            hash % level.width];
    }
    best = std::min(best, sum);
  }
  return best;
}

ElasticCountMin::Level& ElasticCountMin::EnsureLevel(uint32_t width) {
  auto it = levels_.begin();
  while (it != levels_.end() && it->width < width) ++it;
  if (it != levels_.end() && it->width == width) return *it;
  Level level;
  level.width = width;
  level.counters.assign(static_cast<size_t>(depth_) * width, 0);
  return *levels_.insert(it, std::move(level));
}

void ElasticCountMin::FoldInto(Level& dst, const std::vector<uint64_t>& src,
                               uint32_t src_width) {
  const uint64_t mask = dst.width - 1;  // dst.width is a power of two.
  for (int row = 0; row < depth_; ++row) {
    uint64_t* out = dst.counters.data() + static_cast<size_t>(row) * dst.width;
    const uint64_t* in = src.data() + static_cast<size_t>(row) * src_width;
    for (uint32_t i = 0; i < src_width; ++i) out[i & mask] += in[i];
  }
}

void ElasticCountMin::DropEmptyLevels() {
  // Canonical form: a mass-0 level is all zeros (row sums == mass), so
  // it carries no information — keep only the current (back) level.
  for (size_t i = levels_.size() - 1; i-- > 0;) {
    if (levels_[i].mass == 0) levels_.erase(levels_.begin() + i);
  }
}

void ElasticCountMin::Shrink(int new_width) {
  MERGEABLE_CHECK_MSG(
      new_width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(new_width)),
      "Shrink width must be a power of two");
  MERGEABLE_CHECK_MSG(new_width < width_, "Shrink needs a smaller width");
  Level& target = EnsureLevel(static_cast<uint32_t>(new_width));
  // Fold every wider level into the target, then drop it. Exact: each
  // source bucket maps onto exactly one target bucket (mod new_width).
  while (levels_.back().width > target.width) {
    Level folded = std::move(levels_.back());
    levels_.pop_back();
    FoldInto(target, folded.counters, folded.width);
    target.mass += folded.mass;
  }
  width_ = new_width;
  DropEmptyLevels();
}

void ElasticCountMin::Expand(int new_width) {
  MERGEABLE_CHECK_MSG(
      new_width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(new_width)),
      "Expand width must be a power of two");
  MERGEABLE_CHECK_MSG(static_cast<uint32_t>(new_width) <= kMaxWidth,
                      "Expand width too large");
  MERGEABLE_CHECK_MSG(new_width > width_, "Expand needs a larger width");
  EnsureLevel(static_cast<uint32_t>(new_width));
  width_ = new_width;
  DropEmptyLevels();
}

void ElasticCountMin::Merge(const ElasticCountMin& other) {
  MERGEABLE_CHECK_MSG(depth_ == other.depth_ && seed_ == other.seed_,
                      "ElasticCountMin merge requires equal depth and seed");
  const int target = std::min(width_, other.width_);
  if (width_ > target) Shrink(target);
  for (const Level& level : other.levels_) {
    if (level.mass == 0) continue;
    const uint32_t dst_width =
        std::min(level.width, static_cast<uint32_t>(target));
    Level& dst = EnsureLevel(dst_width);
    FoldInto(dst, level.counters, level.width);
    dst.mass += level.mass;
  }
  n_ += other.n_;
}

double ElasticCountMin::ErrorBound() const {
  double bound = 0.0;
  for (const Level& level : levels_) {
    bound += std::exp(1.0) * static_cast<double>(level.mass) /
             static_cast<double>(level.width);
  }
  return bound;
}

size_t ElasticCountMin::TotalCounters() const {
  size_t total = 0;
  for (const Level& level : levels_) total += level.counters.size();
  return total;
}

void ElasticCountMin::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kElasticCountMinMagic);
  writer.PutU32(static_cast<uint32_t>(depth_));
  writer.PutU32(static_cast<uint32_t>(width_));
  writer.PutU64(seed_);
  writer.PutU64(n_);
  uint32_t live = 0;
  for (const Level& level : levels_) {
    if (level.mass > 0) ++live;
  }
  writer.PutU32(live);
  // Mass-0 levels are all zeros (canonical form drops them on the
  // wire); levels_ is kept ascending, so the encoding is a pure
  // function of the summarized multiset + resize history.
  for (const Level& level : levels_) {
    if (level.mass == 0) continue;
    writer.PutU32(level.width);
    writer.PutU64(level.mass);
    writer.PutU64Array(level.counters);
  }
}

std::optional<ElasticCountMin> ElasticCountMin::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t depth = 0;
  uint32_t width = 0;
  uint64_t seed = 0;
  uint64_t n = 0;
  uint32_t levels = 0;
  if (!reader.GetU32(&magic) || magic != kElasticCountMinMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&depth) || depth < 1 || depth > 64) return std::nullopt;
  if (!reader.GetU32(&width) || width < 1 || width > kMaxWidth ||
      !IsPowerOfTwo(width)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&seed) || !reader.GetU64(&n)) return std::nullopt;
  if (!reader.GetU32(&levels) || levels > kMaxLevels) return std::nullopt;
  std::vector<Level> decoded;
  uint64_t total_mass = 0;
  uint32_t prev_width = 0;
  for (uint32_t i = 0; i < levels; ++i) {
    uint32_t level_width = 0;
    uint64_t mass = 0;
    if (!reader.GetU32(&level_width) || !IsPowerOfTwo(level_width) ||
        level_width > width || level_width <= prev_width) {
      return std::nullopt;
    }
    prev_width = level_width;
    if (!reader.GetU64(&mass) || mass == 0) return std::nullopt;
    // The allocation is bounded by the bytes actually present.
    Level& level = decoded.emplace_back();
    level.width = level_width;
    level.mass = mass;
    if (!reader.GetWordVector(static_cast<size_t>(depth) * level_width,
                             &level.counters)) {
      return std::nullopt;
    }
    for (uint32_t row = 0; row < depth; ++row) {
      const uint64_t* counters =
          level.counters.data() + static_cast<size_t>(row) * level_width;
      uint64_t row_sum = 0;
      for (uint32_t cell = 0; cell < level_width; ++cell) {
        if (__builtin_add_overflow(row_sum, counters[cell], &row_sum)) {
          return std::nullopt;
        }
      }
      // Plain updates put each unit of mass in exactly one bucket per
      // row, and folds/merges preserve row sums — a mismatch means a
      // corrupt or forged payload.
      if (row_sum != mass) return std::nullopt;
    }
    if (__builtin_add_overflow(total_mass, mass, &total_mass)) {
      return std::nullopt;
    }
  }
  if (total_mass != n) return std::nullopt;
  if (!reader.Exhausted()) return std::nullopt;
  ElasticCountMin sketch(static_cast<int>(depth), static_cast<int>(width),
                         seed, std::move(decoded));
  sketch.n_ = n;
  return sketch;
}

}  // namespace mergeable
