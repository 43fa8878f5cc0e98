#include "mergeable/approx/eps_approximation.h"

#include "mergeable/util/check.h"

namespace mergeable {

EpsApproximation::EpsApproximation(int buffer_size, uint64_t seed,
                                   HalvingPolicy policy)
    : buffer_size_(buffer_size + (buffer_size & 1)),
      policy_(policy),
      rng_(seed) {
  MERGEABLE_CHECK_MSG(buffer_size >= 2,
                      "EpsApproximation buffer_size must be >= 2");
  levels_.emplace_back();
}

void EpsApproximation::Update(const Point2& point) {
  levels_[0].push_back(point);
  ++n_;
  if (levels_[0].size() >= static_cast<size_t>(buffer_size_)) CompactFrom(0);
}

void EpsApproximation::Merge(const EpsApproximation& other) {
  MERGEABLE_CHECK_MSG(buffer_size_ == other.buffer_size_,
                      "cannot merge approximations of different buffer sizes");
  MERGEABLE_CHECK_MSG(policy_ == other.policy_,
                      "cannot merge approximations of different policies");
  if (!other.levels_.empty()) EnsureLevel(other.levels_.size() - 1);
  for (size_t level = 0; level < other.levels_.size(); ++level) {
    levels_[level].insert(levels_[level].end(), other.levels_[level].begin(),
                          other.levels_[level].end());
  }
  n_ += other.n_;
  for (size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() >= static_cast<size_t>(buffer_size_)) {
      CompactFrom(level);
    }
  }
}

void EpsApproximation::CompactFrom(size_t level) {
  while (level < levels_.size() &&
         levels_[level].size() >= static_cast<size_t>(buffer_size_)) {
    std::vector<Point2> buffer = std::move(levels_[level]);
    levels_[level].clear();
    std::vector<Point2> leftover;
    HalveBuffer(buffer, policy_, rng_, &leftover);
    levels_[level] = std::move(leftover);
    EnsureLevel(level + 1);
    std::vector<Point2>& above = levels_[level + 1];
    above.insert(above.end(), buffer.begin(), buffer.end());
    ++level;
  }
}

void EpsApproximation::EnsureLevel(size_t level) {
  while (levels_.size() <= level) levels_.emplace_back();
}

uint64_t EpsApproximation::RangeCount(const Rect& rect) const {
  uint64_t count = 0;
  uint64_t weight = 1;
  for (const std::vector<Point2>& buffer : levels_) {
    for (const Point2& point : buffer) {
      if (rect.Contains(point)) count += weight;
    }
    weight *= 2;
  }
  return count;
}

size_t EpsApproximation::StoredPoints() const {
  size_t total = 0;
  for (const std::vector<Point2>& buffer : levels_) total += buffer.size();
  return total;
}

std::vector<std::pair<Point2, uint64_t>> EpsApproximation::WeightedPoints()
    const {
  std::vector<std::pair<Point2, uint64_t>> result;
  result.reserve(StoredPoints());
  uint64_t weight = 1;
  for (const std::vector<Point2>& buffer : levels_) {
    for (const Point2& point : buffer) result.emplace_back(point, weight);
    weight *= 2;
  }
  return result;
}

namespace {
constexpr uint32_t kEpsApproxMagic = 0x31304145;  // "EA01"
}  // namespace

void EpsApproximation::Canonicalize() { rng_ = Rng(n_ ^ levels_.size()); }

void EpsApproximation::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kEpsApproxMagic);
  writer.PutU32(static_cast<uint32_t>(buffer_size_));
  writer.PutU32(static_cast<uint32_t>(policy_));
  writer.PutU64(n_);
  writer.PutU32(static_cast<uint32_t>(levels_.size()));
  for (const std::vector<Point2>& level : levels_) {
    writer.PutU32(static_cast<uint32_t>(level.size()));
    for (const Point2& point : level) {
      writer.PutDouble(point.x);
      writer.PutDouble(point.y);
    }
  }
}

std::optional<EpsApproximation> EpsApproximation::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t buffer_size = 0;
  uint32_t policy = 0;
  uint64_t n = 0;
  uint32_t levels = 0;
  if (!reader.GetU32(&magic) || magic != kEpsApproxMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&buffer_size) || buffer_size < 2 ||
      buffer_size % 2 != 0 || buffer_size > (1u << 28)) {
    return std::nullopt;
  }
  if (!reader.GetU32(&policy) || policy > 2) return std::nullopt;
  if (!reader.GetU64(&n) || !reader.GetU32(&levels) || levels == 0 ||
      levels > 64) {
    return std::nullopt;
  }
  EpsApproximation summary(static_cast<int>(buffer_size), /*seed=*/n ^ levels,
                           static_cast<HalvingPolicy>(policy));
  summary.levels_.clear();
  uint64_t total_weight = 0;
  uint64_t weight = 1;
  for (uint32_t level = 0; level < levels; ++level) {
    uint32_t size = 0;
    if (!reader.GetU32(&size) || size >= buffer_size) return std::nullopt;
    if (size > reader.remaining() / (2 * sizeof(double))) {
      return std::nullopt;
    }
    std::vector<Point2> points(size);
    for (Point2& point : points) {
      if (!reader.GetDouble(&point.x) || !reader.GetDouble(&point.y)) {
        return std::nullopt;
      }
    }
    total_weight += static_cast<uint64_t>(size) * weight;
    weight *= 2;
    summary.levels_.push_back(std::move(points));
  }
  if (total_weight != n || !reader.Exhausted()) return std::nullopt;
  summary.n_ = n;
  return summary;
}

}  // namespace mergeable
