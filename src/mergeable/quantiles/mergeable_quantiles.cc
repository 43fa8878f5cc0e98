#include "mergeable/quantiles/mergeable_quantiles.h"

#include <cstddef>

#include <algorithm>
#include <cmath>

#include "mergeable/util/check.h"

namespace mergeable {

MergeableQuantiles::MergeableQuantiles(int buffer_size, uint64_t seed,
                                       OffsetPolicy policy)
    : buffer_size_(buffer_size + (buffer_size & 1)),
      policy_(policy),
      rng_(seed) {
  MERGEABLE_CHECK_MSG(buffer_size >= 2,
                      "MergeableQuantiles buffer_size must be >= 2");
  levels_.emplace_back();
}

MergeableQuantiles MergeableQuantiles::ForEpsilon(double epsilon,
                                                  uint64_t seed) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon <= 0.5,
                      "epsilon must be in (0, 0.5]");
  // b = (2/eps) * sqrt(log2(2/eps)): the paper's O((1/eps) sqrt(log 1/eps))
  // with constants calibrated by the E4 benchmark.
  const double inverse = 2.0 / epsilon;
  const int b = static_cast<int>(
      std::ceil(inverse * std::sqrt(std::max(1.0, std::log2(inverse)))));
  return MergeableQuantiles(b, seed);
}

void MergeableQuantiles::Update(double value) {
  levels_[0].push_back(value);
  ++n_;
  if (levels_[0].size() >= static_cast<size_t>(buffer_size_)) CompactFrom(0);
}

void MergeableQuantiles::UpdateBatch(const double* values, size_t count) {
  if (count == 0) return;
  std::vector<double> sorted(values, values + count);
  std::sort(sorted.begin(), sorted.end());
  n_ += count;
  size_t pos = 0;
  while (pos < count) {
    std::vector<double>& base = levels_[0];
    // Level 0 always has room here: Update/CompactFrom leave it strictly
    // below buffer_size_.
    const size_t room = static_cast<size_t>(buffer_size_) - base.size();
    const size_t take = std::min(room, count - pos);
    base.insert(base.end(), sorted.begin() + static_cast<ptrdiff_t>(pos),
                sorted.begin() + static_cast<ptrdiff_t>(pos + take));
    pos += take;
    if (base.size() >= static_cast<size_t>(buffer_size_)) CompactFrom(0);
  }
}

void MergeableQuantiles::UpdateWeighted(double value, uint64_t weight) {
  if (weight == 0) return;
  n_ += weight;
  size_t level = 0;
  while (weight != 0) {
    if ((weight & 1) != 0) {
      EnsureLevel(level);
      levels_[level].push_back(value);
      if (levels_[level].size() >= static_cast<size_t>(buffer_size_)) {
        CompactFrom(level);
      }
    }
    weight >>= 1;
    ++level;
  }
}

void MergeableQuantiles::Merge(const MergeableQuantiles& other) {
  MERGEABLE_CHECK_MSG(buffer_size_ == other.buffer_size_,
                      "cannot merge summaries of different buffer sizes");
  EnsureLevel(other.levels_.size() == 0 ? 0 : other.levels_.size() - 1);
  for (size_t level = 0; level < other.levels_.size(); ++level) {
    levels_[level].insert(levels_[level].end(), other.levels_[level].begin(),
                          other.levels_[level].end());
  }
  n_ += other.n_;
  // Cascade carries bottom-up, like binary addition (the paper's
  // logarithmic method).
  for (size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() >= static_cast<size_t>(buffer_size_)) {
      CompactFrom(level);
    }
  }
}

void MergeableQuantiles::CompactFrom(size_t level) {
  while (level < levels_.size() &&
         levels_[level].size() >= static_cast<size_t>(buffer_size_)) {
    // Move the buffer out first: EnsureLevel below may grow levels_ and
    // reallocate, which would invalidate a reference into it.
    std::vector<double> buffer = std::move(levels_[level]);
    levels_[level].clear();
    // Buffers fed by UpdateBatch's sorted runs (and many cascades of
    // already-halved levels) arrive sorted; the O(n) check dodges the
    // O(n log n) sort for them and costs a single pass otherwise.
    if (!std::is_sorted(buffer.begin(), buffer.end())) {
      std::sort(buffer.begin(), buffer.end());
    }
    // An odd element count cannot be halved without losing weight; the
    // largest element stays behind at this level, error-free.
    if (buffer.size() % 2 == 1) {
      levels_[level].push_back(buffer.back());
      buffer.pop_back();
    }
    const size_t offset =
        policy_ == OffsetPolicy::kRandom ? rng_.UniformInt(2) : 0;
    EnsureLevel(level + 1);
    std::vector<double>& above = levels_[level + 1];
    for (size_t i = offset; i < buffer.size(); i += 2) {
      above.push_back(buffer[i]);
    }
    ++compactions_;
    ++level;
  }
}

void MergeableQuantiles::EnsureLevel(size_t level) {
  while (levels_.size() <= level) levels_.emplace_back();
}

uint64_t MergeableQuantiles::Rank(double x) const {
  uint64_t rank = 0;
  uint64_t weight = 1;
  for (const std::vector<double>& buffer : levels_) {
    for (double value : buffer) {
      if (value <= x) rank += weight;
    }
    weight *= 2;
  }
  return rank;
}

double MergeableQuantiles::Quantile(double phi) const {
  MERGEABLE_CHECK_MSG(n_ > 0, "Quantile of empty summary");
  // Gather (value, weight) pairs, sort by value, walk to the target rank.
  std::vector<std::pair<double, uint64_t>> weighted;
  weighted.reserve(StoredValues());
  uint64_t weight = 1;
  uint64_t total = 0;
  for (const std::vector<double>& buffer : levels_) {
    for (double value : buffer) {
      weighted.emplace_back(value, weight);
      total += weight;
    }
    weight *= 2;
  }
  MERGEABLE_CHECK_MSG(!weighted.empty(), "summary lost all values");
  // Weight conservation: halving with leftover never loses stream weight.
  MERGEABLE_DCHECK(total == n_);
  std::sort(weighted.begin(), weighted.end());

  auto target = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(total)));
  if (target < 1) target = 1;
  uint64_t seen = 0;
  for (const auto& [value, w] : weighted) {
    seen += w;
    if (seen >= target) return value;
  }
  return weighted.back().first;
}

size_t MergeableQuantiles::StoredValues() const {
  size_t total = 0;
  for (const std::vector<double>& buffer : levels_) total += buffer.size();
  return total;
}

namespace {
constexpr uint32_t kMergeableQuantilesMagic = 0x3130514d;  // "MQ01"
}  // namespace

void MergeableQuantiles::Canonicalize() {
  rng_ = Rng(n_ ^ (compactions_ << 32));
}

void MergeableQuantiles::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kMergeableQuantilesMagic);
  writer.PutU32(static_cast<uint32_t>(buffer_size_));
  writer.PutU32(policy_ == OffsetPolicy::kRandom ? 0 : 1);
  writer.PutU64(n_);
  writer.PutU64(compactions_);
  writer.PutU32(static_cast<uint32_t>(levels_.size()));
  for (const std::vector<double>& level : levels_) {
    writer.PutU32(static_cast<uint32_t>(level.size()));
    for (double value : level) writer.PutDouble(value);
  }
}

std::optional<MergeableQuantiles> MergeableQuantiles::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t buffer_size = 0;
  uint32_t policy = 0;
  uint64_t n = 0;
  uint64_t compactions = 0;
  uint32_t levels = 0;
  if (!reader.GetU32(&magic) || magic != kMergeableQuantilesMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&buffer_size) || buffer_size < 2 ||
      buffer_size % 2 != 0 || buffer_size > (1u << 28)) {
    return std::nullopt;
  }
  if (!reader.GetU32(&policy) || policy > 1) return std::nullopt;
  if (!reader.GetU64(&n) || !reader.GetU64(&compactions) ||
      !reader.GetU32(&levels) || levels == 0 || levels > 64) {
    return std::nullopt;
  }
  // Re-seed the offset RNG deterministically from the content; see the
  // header comment.
  MergeableQuantiles summary(
      static_cast<int>(buffer_size), n ^ (compactions << 32),
      policy == 0 ? OffsetPolicy::kRandom : OffsetPolicy::kAlwaysLow);
  summary.levels_.clear();
  uint64_t total_weight = 0;
  uint64_t weight = 1;
  for (uint32_t level = 0; level < levels; ++level) {
    uint32_t size = 0;
    if (!reader.GetU32(&size) || size >= buffer_size) return std::nullopt;
    // A level size the input cannot back is malformed; checking before
    // the allocation keeps corrupted headers from reserving gigabytes.
    if (size > reader.remaining() / sizeof(double)) return std::nullopt;
    std::vector<double> values(size);
    for (double& value : values) {
      if (!reader.GetDouble(&value)) return std::nullopt;
    }
    total_weight += static_cast<uint64_t>(size) * weight;
    weight *= 2;
    summary.levels_.push_back(std::move(values));
  }
  if (total_weight != n || !reader.Exhausted()) return std::nullopt;
  summary.n_ = n;
  summary.compactions_ = compactions;
  return summary;
}

}  // namespace mergeable
