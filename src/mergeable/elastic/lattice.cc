#include "mergeable/elastic/lattice.h"

#include <algorithm>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {
namespace {

// Distinct power-of-two widths in [1, 2^28]: bounds the level count
// against hostile payloads.
constexpr uint32_t kMaxLevels = 29;

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

template <typename Counter>
ElasticLattice<Counter>::ElasticLattice(int depth, int width, uint64_t seed)
    : depth_(depth), width_(width), seed_(seed) {
  MERGEABLE_CHECK_MSG(depth >= 1 && depth <= 64,
                      "elastic sketch needs depth in [1, 64]");
  MERGEABLE_CHECK_MSG(width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(width)),
                      "elastic sketch width must be a power of two");
  MERGEABLE_CHECK_MSG(static_cast<uint32_t>(width) <= kMaxWidth,
                      "elastic sketch width too large");
  levels_.push_back(Level{static_cast<uint32_t>(width), 0, {}});
}

template <typename Counter>
Counter* ElasticLattice<Counter>::WritableCurrent() {
  Level& level = levels_.back();
  if (level.counters.empty()) {
    level.counters.assign(static_cast<size_t>(depth_) * level.width, 0);
  }
  return level.counters.data();
}

template <typename Counter>
Counter ElasticLattice<Counter>::RowSum(int row, uint64_t hash) const {
  Counter sum = 0;
  for (const Level& level : levels_) {
    // A mass-0 level is all zeros, and may hold no counters at all.
    if (level.mass == 0) continue;
    sum += level.counters[static_cast<size_t>(row) * level.width +
                          hash % level.width];
  }
  return sum;
}

template <typename Counter>
typename ElasticLattice<Counter>::Level& ElasticLattice<Counter>::EnsureLevel(
    uint32_t width) {
  auto it = levels_.begin();
  while (it != levels_.end() && it->width < width) ++it;
  if (it != levels_.end() && it->width == width) return *it;
  return *levels_.insert(it, Level{width, 0, {}});
}

template <typename Counter>
void ElasticLattice<Counter>::FoldInto(Level& dst, const Level& src) {
  dst.mass += src.mass;
  if (src.counters.empty()) return;
  if (dst.counters.empty()) {
    dst.counters.assign(static_cast<size_t>(depth_) * dst.width, 0);
  }
  const uint64_t mask = dst.width - 1;  // dst.width is a power of two.
  for (int row = 0; row < depth_; ++row) {
    Counter* out = dst.counters.data() + static_cast<size_t>(row) * dst.width;
    const Counter* in =
        src.counters.data() + static_cast<size_t>(row) * src.width;
    for (uint32_t i = 0; i < src.width; ++i) out[i & mask] += in[i];
  }
}

template <typename Counter>
void ElasticLattice<Counter>::DropEmptyLevels() {
  // A mass-0 level carries no information; keep only the current
  // (back) one.
  for (size_t i = levels_.size() - 1; i-- > 0;) {
    if (levels_[i].mass == 0) levels_.erase(levels_.begin() + i);
  }
}

template <typename Counter>
void ElasticLattice<Counter>::Shrink(int new_width) {
  MERGEABLE_CHECK_MSG(
      new_width >= 1 && IsPowerOfTwo(static_cast<uint64_t>(new_width)),
      "Shrink width must be a power of two");
  MERGEABLE_CHECK_MSG(new_width < width_, "Shrink needs a smaller width");
  Level& target = EnsureLevel(static_cast<uint32_t>(new_width));
  // Each source bucket maps onto exactly one target bucket (mod
  // new_width).
  while (levels_.back().width > target.width) {
    const Level folded = std::move(levels_.back());
    levels_.pop_back();
    FoldInto(target, folded);
  }
  width_ = new_width;
  DropEmptyLevels();
}

template <typename Counter>
void ElasticLattice<Counter>::Expand(int new_width) {
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

template <typename Counter>
void ElasticLattice<Counter>::Merge(const ElasticLattice& other) {
  MERGEABLE_CHECK_MSG(shape() == other.shape(),
                      "elastic sketch merge requires equal depth and seed");
  const int target = std::min(width_, other.width_);
  if (width_ > target) Shrink(target);
  for (const Level& level : other.levels_) {
    if (level.mass == 0) continue;
    FoldInto(EnsureLevel(std::min(level.width, static_cast<uint32_t>(target))),
             level);
  }
  n_ += other.n_;
}

template <typename Counter>
size_t ElasticLattice<Counter>::TotalCounters() const {
  size_t total = 0;
  for (const Level& level : levels_) total += level.counters.size();
  return total;
}

template <typename Counter>
void ElasticLattice<Counter>::EncodeLattice(ByteWriter& writer,
                                            uint32_t magic) const {
  writer.PutU32(magic);
  writer.PutU32(static_cast<uint32_t>(depth_));
  writer.PutU32(static_cast<uint32_t>(width_));
  writer.PutU64(seed_);
  writer.PutU64(n_);
  uint32_t live = 0;
  for (const Level& level : levels_) {
    if (level.mass > 0) ++live;
  }
  writer.PutU32(live);
  // Mass-0 levels are all zeros and stay off the wire; levels_ is kept
  // ascending, so the encoding is a pure function of the summarized
  // multiset and the resize history.
  for (const Level& level : levels_) {
    if (level.mass == 0) continue;
    writer.PutU32(level.width);
    writer.PutU64(level.mass);
    writer.PutCounterArray(level.counters);
  }
}

template <typename Counter>
std::optional<ElasticLattice<Counter>> ElasticLattice<Counter>::DecodeLattice(
    ByteReader& reader, uint32_t magic, CellCheck check) {
  uint32_t seen = 0;
  uint32_t depth = 0;
  uint32_t width = 0;
  uint64_t seed = 0;
  uint64_t n = 0;
  uint32_t levels = 0;
  if (!reader.GetU32(&seen) || seen != magic) return std::nullopt;
  if (!reader.GetU32(&depth) || depth < 1 || depth > 64) return std::nullopt;
  if (!reader.GetU32(&width) || width > kMaxWidth || !IsPowerOfTwo(width)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&seed) || !reader.GetU64(&n)) return std::nullopt;
  if (!reader.GetU32(&levels) || levels > kMaxLevels) return std::nullopt;
  ElasticLattice lattice(static_cast<int>(depth), static_cast<int>(width),
                         seed);
  lattice.levels_.clear();
  uint64_t total_mass = 0;
  uint32_t prev_width = 0;
  for (uint32_t i = 0; i < levels; ++i) {
    Level level;
    if (!reader.GetU32(&level.width) || !IsPowerOfTwo(level.width) ||
        level.width > width || level.width <= prev_width) {
      return std::nullopt;
    }
    prev_width = level.width;
    if (!reader.GetU64(&level.mass) || level.mass == 0) return std::nullopt;
    // The allocation is bounded by the bytes actually present.
    if (!reader.GetCounterVector(static_cast<size_t>(depth) * level.width,
                                 &level.counters) ||
        !check(level.counters, depth, level.width, level.mass) ||
        __builtin_add_overflow(total_mass, level.mass, &total_mass)) {
      return std::nullopt;
    }
    lattice.levels_.push_back(std::move(level));
  }
  if (total_mass != n || !reader.Exhausted()) return std::nullopt;
  if (prev_width != width) {
    lattice.levels_.push_back(Level{width, 0, {}});
  }
  lattice.n_ = n;
  return lattice;
}

template <typename Counter>
typename ElasticLattice<Counter>::Shape ElasticLattice<Counter>::EncodedShapeOf(
    const uint8_t* bytes, size_t size, uint32_t magic) {
  ByteReader reader(bytes, size);
  uint32_t seen = 0;
  uint32_t width = 0;
  Shape shape;
  MERGEABLE_CHECK_MSG(reader.GetU32(&seen) && seen == magic &&
                          reader.GetU32(&shape.depth) &&
                          reader.GetU32(&width) && reader.GetU64(&shape.seed),
                      "elastic sketch payload must be valid");
  return shape;
}

template class ElasticLattice<uint64_t>;
template class ElasticLattice<int64_t>;

}  // namespace mergeable
