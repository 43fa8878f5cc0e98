#include "mergeable/elastic/elastic_count_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {
namespace {

constexpr uint32_t kElasticCountSketchMagic = 0x31534345;  // "ECS1"
constexpr uint32_t kMaxWidth = 1u << 28;
constexpr uint32_t kMaxLevels = 29;

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

ElasticCountSketch::ElasticCountSketch(int depth, int width, uint64_t seed)
    : ElasticCountSketch(depth, width, seed, {}) {}

ElasticCountSketch::ElasticCountSketch(int depth, int width, uint64_t seed,
                                       std::vector<Level> levels)
    : depth_(depth), width_(width), seed_(seed), levels_(std::move(levels)) {
  MERGEABLE_CHECK_MSG(depth >= 1 && depth <= 64,
                      "ElasticCountSketch needs depth in [1, 64]");
  MERGEABLE_CHECK_MSG(width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(width)),
                      "ElasticCountSketch width must be a power of two");
  MERGEABLE_CHECK_MSG(static_cast<uint32_t>(width) <= kMaxWidth,
                      "ElasticCountSketch width too large");
  bucket_hashes_.reserve(static_cast<size_t>(depth));
  sign_hashes_.reserve(static_cast<size_t>(depth));
  for (int row = 0; row < depth; ++row) {
    bucket_hashes_.emplace_back(
        /*degree=*/2, MixHash(static_cast<uint64_t>(row) * 2, seed));
    sign_hashes_.emplace_back(
        /*degree=*/4, MixHash(static_cast<uint64_t>(row) * 2 + 1, seed));
  }
  if (levels_.empty() ||
      levels_.back().width != static_cast<uint32_t>(width)) {
    Level level;
    level.width = static_cast<uint32_t>(width);
    level.counters.assign(static_cast<size_t>(depth) * width, 0);
    levels_.push_back(std::move(level));
  }
}

void ElasticCountSketch::Update(uint64_t item, int64_t weight) {
  Level& level = levels_.back();
  const uint64_t w = level.width;
  for (int row = 0; row < depth_; ++row) {
    const uint64_t bucket = bucket_hashes_[static_cast<size_t>(row)](item) % w;
    level.counters[static_cast<size_t>(row) * w + bucket] +=
        sign_hashes_[static_cast<size_t>(row)].Sign(item) * weight;
  }
  const uint64_t magnitude =
      static_cast<uint64_t>(weight < 0 ? -weight : weight);
  level.mass += magnitude;
  n_ += magnitude;
}

int64_t ElasticCountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> estimates(static_cast<size_t>(depth_));
  for (int row = 0; row < depth_; ++row) {
    const uint64_t hash = bucket_hashes_[static_cast<size_t>(row)](item);
    int64_t sum = 0;
    for (const Level& level : levels_) {
      sum += level.counters[static_cast<size_t>(row) * level.width +
                            hash % level.width];
    }
    estimates[static_cast<size_t>(row)] =
        sign_hashes_[static_cast<size_t>(row)].Sign(item) * sum;
  }
  const size_t mid = estimates.size() / 2;
  std::nth_element(estimates.begin(),
                   estimates.begin() + static_cast<ptrdiff_t>(mid),
                   estimates.end());
  if (estimates.size() % 2 == 1) return estimates[mid];
  const int64_t upper = estimates[mid];
  const int64_t lower =
      *std::max_element(estimates.begin(),
                        estimates.begin() + static_cast<ptrdiff_t>(mid));
  return (lower + upper) / 2;  // Round toward zero, as CountSketch does.
}

ElasticCountSketch::Level& ElasticCountSketch::EnsureLevel(uint32_t width) {
  auto it = levels_.begin();
  while (it != levels_.end() && it->width < width) ++it;
  if (it != levels_.end() && it->width == width) return *it;
  Level level;
  level.width = width;
  level.counters.assign(static_cast<size_t>(depth_) * width, 0);
  return *levels_.insert(it, std::move(level));
}

void ElasticCountSketch::FoldInto(Level& dst, const std::vector<int64_t>& src,
                                  uint32_t src_width) {
  const uint64_t mask = dst.width - 1;
  for (int row = 0; row < depth_; ++row) {
    int64_t* out = dst.counters.data() + static_cast<size_t>(row) * dst.width;
    const int64_t* in = src.data() + static_cast<size_t>(row) * src_width;
    for (uint32_t i = 0; i < src_width; ++i) out[i & mask] += in[i];
  }
}

void ElasticCountSketch::DropEmptyLevels() {
  for (size_t i = levels_.size() - 1; i-- > 0;) {
    if (levels_[i].mass == 0) levels_.erase(levels_.begin() + i);
  }
}

void ElasticCountSketch::Shrink(int new_width) {
  MERGEABLE_CHECK_MSG(
      new_width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(new_width)),
      "Shrink width must be a power of two");
  MERGEABLE_CHECK_MSG(new_width < width_, "Shrink needs a smaller width");
  Level& target = EnsureLevel(static_cast<uint32_t>(new_width));
  while (levels_.back().width > target.width) {
    Level folded = std::move(levels_.back());
    levels_.pop_back();
    FoldInto(target, folded.counters, folded.width);
    target.mass += folded.mass;
  }
  width_ = new_width;
  DropEmptyLevels();
}

void ElasticCountSketch::Expand(int new_width) {
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

void ElasticCountSketch::Merge(const ElasticCountSketch& other) {
  MERGEABLE_CHECK_MSG(depth_ == other.depth_ && seed_ == other.seed_,
                      "ElasticCountSketch merge requires equal depth and seed");
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

double ElasticCountSketch::ErrorBound() const {
  double variance = 0.0;
  for (const Level& level : levels_) {
    const double mass = static_cast<double>(level.mass);
    variance += mass * mass / static_cast<double>(level.width);
  }
  return std::sqrt(3.0 * variance);
}

size_t ElasticCountSketch::TotalCounters() const {
  size_t total = 0;
  for (const Level& level : levels_) total += level.counters.size();
  return total;
}

void ElasticCountSketch::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kElasticCountSketchMagic);
  writer.PutU32(static_cast<uint32_t>(depth_));
  writer.PutU32(static_cast<uint32_t>(width_));
  writer.PutU64(seed_);
  writer.PutU64(n_);
  uint32_t live = 0;
  for (const Level& level : levels_) {
    if (level.mass > 0) ++live;
  }
  writer.PutU32(live);
  for (const Level& level : levels_) {
    if (level.mass == 0) continue;
    writer.PutU32(level.width);
    writer.PutU64(level.mass);
    writer.PutI64Array(level.counters);
  }
}

std::optional<ElasticCountSketch> ElasticCountSketch::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t depth = 0;
  uint32_t width = 0;
  uint64_t seed = 0;
  uint64_t n = 0;
  uint32_t levels = 0;
  if (!reader.GetU32(&magic) || magic != kElasticCountSketchMagic) {
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
    Level& level = decoded.emplace_back();
    level.width = level_width;
    level.mass = mass;
    if (!reader.GetWordVector(static_cast<size_t>(depth) * level_width,
                             &level.counters)) {
      return std::nullopt;
    }
    for (int64_t counter : level.counters) {
      // Each update moves one cell per row by ±weight, so no cell's
      // magnitude can exceed the level's absorbed mass.
      const uint64_t magnitude =
          counter < 0 ? ~static_cast<uint64_t>(counter) + 1
                      : static_cast<uint64_t>(counter);
      if (magnitude > mass) return std::nullopt;
    }
    if (__builtin_add_overflow(total_mass, mass, &total_mass)) {
      return std::nullopt;
    }
  }
  if (total_mass != n) return std::nullopt;
  if (!reader.Exhausted()) return std::nullopt;
  ElasticCountSketch sketch(static_cast<int>(depth), static_cast<int>(width),
                            seed, std::move(decoded));
  sketch.n_ = n;
  return sketch;
}

}  // namespace mergeable
