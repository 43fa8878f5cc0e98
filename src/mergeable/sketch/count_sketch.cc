#include "mergeable/sketch/count_sketch.h"

#include <cstddef>

#include <algorithm>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

CountSketch::RowHashes CountSketch::MakeRowHashes(int depth, uint64_t seed) {
  RowHashes hashes;
  hashes.bucket.reserve(static_cast<size_t>(depth));
  hashes.sign.reserve(static_cast<size_t>(depth));
  for (int row = 0; row < depth; ++row) {
    hashes.bucket.emplace_back(
        /*degree=*/2, MixHash(static_cast<uint64_t>(row) * 2, seed));
    hashes.sign.emplace_back(
        /*degree=*/4, MixHash(static_cast<uint64_t>(row) * 2 + 1, seed));
  }
  return hashes;
}

int64_t CountSketch::MedianOfRows(std::vector<int64_t>& estimates) {
  const size_t mid = estimates.size() / 2;
  std::nth_element(estimates.begin(),
                   estimates.begin() + static_cast<ptrdiff_t>(mid),
                   estimates.end());
  if (estimates.size() % 2 == 1) return estimates[mid];
  const int64_t upper = estimates[mid];
  const int64_t lower =
      *std::max_element(estimates.begin(),
                        estimates.begin() + static_cast<ptrdiff_t>(mid));
  // Round toward zero to keep small frequencies unbiased-ish.
  return (lower + upper) / 2;
}

CountSketch::CountSketch(int depth, int width, uint64_t seed)
    : CountSketch(depth, width, seed, {}) {}

CountSketch::CountSketch(int depth, int width, uint64_t seed,
                         std::vector<int64_t> counters)
    : depth_(depth), width_(width), seed_(seed),
      counters_(std::move(counters)) {
  MERGEABLE_CHECK_MSG(depth >= 1 && width >= 1,
                      "CountSketch needs depth >= 1 and width >= 1");
  hashes_ = MakeRowHashes(depth, seed);
  if (counters_.empty()) {
    counters_.assign(static_cast<size_t>(depth) * static_cast<size_t>(width),
                     0);
  }
}

void CountSketch::Update(uint64_t item, int64_t weight) {
  n_ += static_cast<uint64_t>(weight < 0 ? -weight : weight);
  for (int row = 0; row < depth_; ++row) {
    counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)] +=
        Sign(row, item) * weight;
  }
}

void CountSketch::UpdateBatch(const uint64_t* items, size_t count) {
  n_ += count;
  constexpr size_t kBlock = 256;
  constexpr size_t kPrefetchAhead = 8;
  uint64_t buckets[kBlock];
  for (size_t start = 0; start < count; start += kBlock) {
    const size_t block = std::min(kBlock, count - start);
    for (int row = 0; row < depth_; ++row) {
      int64_t* row_counters =
          counters_.data() + static_cast<size_t>(row) * width_;
      hashes_.bucket[static_cast<size_t>(row)].BoundedBatch(
          items + start, block, static_cast<uint64_t>(width_), buckets);
      const PolynomialHash& sign = hashes_.sign[static_cast<size_t>(row)];
      for (size_t i = 0; i < block; ++i) {
        if (i + kPrefetchAhead < block) {
          __builtin_prefetch(row_counters + buckets[i + kPrefetchAhead], 1);
        }
        row_counters[buckets[i]] += sign.Sign(items[start + i]);
      }
    }
  }
}

int64_t CountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> estimates(static_cast<size_t>(depth_));
  for (int row = 0; row < depth_; ++row) {
    estimates[static_cast<size_t>(row)] =
        Sign(row, item) *
        counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)];
  }
  return MedianOfRows(estimates);
}

void CountSketch::Merge(const CountSketch& other) {
  MERGEABLE_CHECK_MSG(depth_ == other.depth_ && width_ == other.width_ &&
                          seed_ == other.seed_,
                      "CountSketch merge requires identical shape and seed");
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  n_ += other.n_;
}

namespace {
constexpr uint32_t kCountSketchMagic = 0x31305343;  // "CS01"
}  // namespace

void CountSketch::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kCountSketchMagic);
  writer.PutU32(static_cast<uint32_t>(depth_));
  writer.PutU32(static_cast<uint32_t>(width_));
  writer.PutU64(seed_);
  writer.PutU64(n_);
  writer.PutI64Array(counters_);
}

std::optional<CountSketch> CountSketch::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t depth = 0;
  uint32_t width = 0;
  uint64_t seed = 0;
  uint64_t n = 0;
  if (!reader.GetU32(&magic) || magic != kCountSketchMagic) {
    return std::nullopt;
  }
  if (!reader.GetU32(&depth) || depth < 1 || depth > 64) return std::nullopt;
  if (!reader.GetU32(&width) || width < 1 || width > (1u << 28)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&seed) || !reader.GetU64(&n)) return std::nullopt;
  if (reader.remaining() !=
      static_cast<size_t>(depth) * width * sizeof(int64_t)) {
    return std::nullopt;
  }
  std::vector<int64_t> counters;
  if (!reader.GetWordVector(static_cast<size_t>(depth) * width, &counters)) {
    return std::nullopt;
  }
  CountSketch sketch(static_cast<int>(depth), static_cast<int>(width), seed,
                     std::move(counters));
  sketch.n_ = n;
  return sketch;
}

}  // namespace mergeable
