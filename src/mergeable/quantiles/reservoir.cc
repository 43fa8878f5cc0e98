#include "mergeable/quantiles/reservoir.h"

#include <algorithm>
#include <cmath>

#include "mergeable/util/check.h"

namespace mergeable {
namespace {

// Draws `take` elements uniformly without replacement from `values` via a
// partial Fisher-Yates shuffle; the chosen elements end up in the first
// `take` positions.
void TakeUniform(std::vector<double>& values, size_t take, Rng& rng) {
  MERGEABLE_CHECK(take <= values.size());
  for (size_t i = 0; i < take; ++i) {
    const size_t j = i + rng.UniformInt(values.size() - i);
    std::swap(values[i], values[j]);
  }
  values.resize(take);
}

}  // namespace

ReservoirSample::ReservoirSample(int sample_size, uint64_t seed)
    : sample_size_(sample_size), rng_(seed) {
  MERGEABLE_CHECK_MSG(sample_size >= 1, "sample_size must be >= 1");
  // Capped pre-reserve: `sample_size` can come off the wire (DecodeFrom).
  values_.reserve(
      std::min<size_t>(static_cast<size_t>(sample_size), size_t{1} << 16));
}

void ReservoirSample::Update(double value) {
  ++n_;
  if (values_.size() < static_cast<size_t>(sample_size_)) {
    values_.push_back(value);
    return;
  }
  // Classic reservoir step: keep with probability sample_size / n.
  const uint64_t slot = rng_.UniformInt(n_);
  if (slot < static_cast<uint64_t>(sample_size_)) {
    values_[slot] = value;
  }
}

void ReservoirSample::Merge(const ReservoirSample& other) {
  MERGEABLE_CHECK_MSG(sample_size_ == other.sample_size_,
                      "cannot merge reservoirs of different sizes");
  const uint64_t total = n_ + other.n_;
  const size_t out =
      std::min<uint64_t>(static_cast<uint64_t>(sample_size_), total);

  // How many of the merged sample's elements come from this side: draw
  // `out` population members without replacement and count side hits.
  uint64_t remaining_mine = n_;
  uint64_t remaining_theirs = other.n_;
  size_t from_mine = 0;
  for (size_t i = 0; i < out; ++i) {
    const uint64_t pick = rng_.UniformInt(remaining_mine + remaining_theirs);
    if (pick < remaining_mine) {
      ++from_mine;
      --remaining_mine;
    } else {
      --remaining_theirs;
    }
  }
  const size_t from_theirs = out - from_mine;
  MERGEABLE_CHECK(from_mine <= values_.size());
  MERGEABLE_CHECK(from_theirs <= other.values_.size());

  TakeUniform(values_, from_mine, rng_);
  std::vector<double> theirs = other.values_;
  TakeUniform(theirs, from_theirs, rng_);
  values_.insert(values_.end(), theirs.begin(), theirs.end());
  n_ = total;
}

uint64_t ReservoirSample::Rank(double x) const {
  if (values_.empty()) return 0;
  size_t below = 0;
  for (double value : values_) {
    if (value <= x) ++below;
  }
  const double fraction =
      static_cast<double>(below) / static_cast<double>(values_.size());
  return static_cast<uint64_t>(
      std::llround(fraction * static_cast<double>(n_)));
}

double ReservoirSample::Quantile(double phi) const {
  MERGEABLE_CHECK_MSG(!values_.empty(), "Quantile of empty reservoir");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  auto rank = static_cast<int64_t>(
      std::ceil(phi * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > static_cast<int64_t>(sorted.size())) {
    rank = static_cast<int64_t>(sorted.size());
  }
  return sorted[static_cast<size_t>(rank - 1)];
}

namespace {
constexpr uint32_t kReservoirMagic = 0x31305352;  // "RS01"
}  // namespace

void ReservoirSample::Canonicalize() { rng_ = Rng(n_ ^ values_.size()); }

void ReservoirSample::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kReservoirMagic);
  writer.PutU32(static_cast<uint32_t>(sample_size_));
  writer.PutU64(n_);
  writer.PutU32(static_cast<uint32_t>(values_.size()));
  for (double value : values_) writer.PutDouble(value);
}

std::optional<ReservoirSample> ReservoirSample::DecodeFrom(
    ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t sample_size = 0;
  uint64_t n = 0;
  uint32_t size = 0;
  if (!reader.GetU32(&magic) || magic != kReservoirMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&sample_size) || sample_size < 1 ||
      sample_size > (1u << 28)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&n) || !reader.GetU32(&size) || size > sample_size ||
      size > n) {
    return std::nullopt;
  }
  // A reservoir is full whenever n >= sample_size.
  if (size != std::min<uint64_t>(sample_size, n)) return std::nullopt;
  if (size > reader.remaining() / sizeof(double)) return std::nullopt;
  ReservoirSample sample(static_cast<int>(sample_size), /*seed=*/n ^ size);
  sample.values_.resize(size);
  for (double& value : sample.values_) {
    if (!reader.GetDouble(&value)) return std::nullopt;
  }
  if (!reader.Exhausted()) return std::nullopt;
  sample.n_ = n;
  return sample;
}

}  // namespace mergeable
