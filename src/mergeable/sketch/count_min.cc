#include "mergeable/sketch/count_min.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

std::vector<PolynomialHash> CountMinSketch::MakeRowHashes(int depth,
                                                          uint64_t seed) {
  std::vector<PolynomialHash> hashes;
  hashes.reserve(static_cast<size_t>(depth));
  for (int row = 0; row < depth; ++row) {
    hashes.emplace_back(/*degree=*/2,
                        MixHash(static_cast<uint64_t>(row), seed));
  }
  return hashes;
}

CountMinSketch::CountMinSketch(int depth, int width, uint64_t seed,
                               CountMinUpdate update)
    : CountMinSketch(depth, width, seed, update, {}) {}

CountMinSketch::CountMinSketch(int depth, int width, uint64_t seed,
                               CountMinUpdate update,
                               std::vector<uint64_t> counters)
    : depth_(depth),
      width_(width),
      seed_(seed),
      update_(update),
      counters_(std::move(counters)) {
  MERGEABLE_CHECK_MSG(depth >= 1 && width >= 1,
                      "CountMin needs depth >= 1 and width >= 1");
  hashes_ = MakeRowHashes(depth, seed);
  if (counters_.empty()) {
    counters_.assign(static_cast<size_t>(depth) * static_cast<size_t>(width),
                     0);
  }
}

CountMinSketch CountMinSketch::ForEpsilonDelta(double epsilon, double delta,
                                               uint64_t seed,
                                               CountMinUpdate update) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon < 1.0,
                      "epsilon must be in (0, 1)");
  MERGEABLE_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  const int width =
      std::max(1, static_cast<int>(std::ceil(std::exp(1.0) / epsilon)));
  const int depth =
      std::max(1, static_cast<int>(std::ceil(std::log(1.0 / delta))));
  return CountMinSketch(depth, width, seed, update);
}

void CountMinSketch::Update(uint64_t item, uint64_t weight) {
  n_ += weight;
  if (update_ == CountMinUpdate::kPlain) {
    for (int row = 0; row < depth_; ++row) {
      counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)] +=
          weight;
    }
    return;
  }
  // Conservative update: raise every row's counter only as far as the new
  // lower bound (current estimate + weight) requires.
  const uint64_t target = Estimate(item) + weight;
  for (int row = 0; row < depth_; ++row) {
    uint64_t& counter =
        counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)];
    counter = std::max(counter, target);
  }
}

void CountMinSketch::UpdateBatch(const uint64_t* items, size_t count) {
  if (update_ == CountMinUpdate::kConservative) {
    // Conservative updates read the current estimate, so they are
    // order-dependent; the batch form must preserve per-item semantics.
    for (size_t i = 0; i < count; ++i) Update(items[i]);
    return;
  }
  n_ += count;
  // Two passes per (row, block): hash the whole block with hoisted
  // coefficients, then bump the counters with the next lines prefetched.
  // Row-major blocks keep one row's counters hot instead of striding
  // through depth_ rows per item.
  constexpr size_t kBlock = 256;
  constexpr size_t kPrefetchAhead = 8;
  uint64_t buckets[kBlock];
  for (size_t start = 0; start < count; start += kBlock) {
    const size_t block = std::min(kBlock, count - start);
    for (int row = 0; row < depth_; ++row) {
      uint64_t* row_counters =
          counters_.data() + static_cast<size_t>(row) * width_;
      hashes_[static_cast<size_t>(row)].BoundedBatch(
          items + start, block, static_cast<uint64_t>(width_), buckets);
      for (size_t i = 0; i < block; ++i) {
        if (i + kPrefetchAhead < block) {
          __builtin_prefetch(row_counters + buckets[i + kPrefetchAhead], 1);
        }
        row_counters[buckets[i]] += 1;
      }
    }
  }
}

uint64_t CountMinSketch::Estimate(uint64_t item) const {
  uint64_t best = ~uint64_t{0};
  for (int row = 0; row < depth_; ++row) {
    best = std::min(
        best,
        counters_[static_cast<size_t>(row) * width_ + Bucket(row, item)]);
  }
  return best;
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  MERGEABLE_CHECK_MSG(depth_ == other.depth_ && width_ == other.width_ &&
                          seed_ == other.seed_,
                      "CountMin merge requires identical shape and seed");
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  n_ += other.n_;
}

namespace {
constexpr uint32_t kCountMinMagic = 0x31304d43;  // "CM01"

// The fields before the counter array.
struct Header {
  uint32_t depth = 0;
  uint32_t width = 0;
  uint32_t update = 0;
  uint64_t seed = 0;
  uint64_t n = 0;

  size_t cells() const { return static_cast<size_t>(depth) * width; }
};
constexpr size_t kHeaderBytes = 4 * sizeof(uint32_t) + 2 * sizeof(uint64_t);

// Reads and range-checks the header; false on any field DecodeFrom
// rejects.
bool ReadHeader(ByteReader& reader, Header* header) {
  uint32_t magic = 0;
  if (!reader.GetU32(&magic) || magic != kCountMinMagic) return false;
  if (!reader.GetU32(&header->depth) || header->depth < 1 ||
      header->depth > 64) {
    return false;
  }
  if (!reader.GetU32(&header->width) || header->width < 1 ||
      header->width > (1u << 28)) {
    return false;
  }
  if (!reader.GetU32(&header->update) || header->update > 1) return false;
  return reader.GetU64(&header->seed) && reader.GetU64(&header->n);
}

// The header of a payload ValidateEncoded accepted.
Header ValidHeader(const uint8_t* bytes, size_t size) {
  ByteReader reader(bytes, size);
  Header header;
  MERGEABLE_CHECK_MSG(
      ReadHeader(reader, &header) &&
          reader.remaining() == header.cells() * sizeof(uint64_t),
      "CountMin payload must be valid");
  return header;
}

CountMinSketch::Shape ShapeOf(const Header& header) {
  return {header.depth, header.width, header.seed};
}
}  // namespace

void CountMinSketch::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kCountMinMagic);
  writer.PutU32(static_cast<uint32_t>(depth_));
  writer.PutU32(static_cast<uint32_t>(width_));
  writer.PutU32(update_ == CountMinUpdate::kPlain ? 0 : 1);
  writer.PutU64(seed_);
  writer.PutU64(n_);
  writer.PutU64Array(counters_);
}

std::optional<CountMinSketch> CountMinSketch::DecodeFrom(ByteReader& reader) {
  Header header;
  if (!ReadHeader(reader, &header)) return std::nullopt;
  // Count-Min frames are embedded inside composite formats (dyadic
  // Count-Min), so trailing bytes may belong to the container.
  // Standalone callers check reader.Exhausted() themselves.
  std::vector<uint64_t> counters;
  if (!reader.GetWordVector(header.cells(), &counters)) return std::nullopt;
  CountMinSketch sketch(
      static_cast<int>(header.depth), static_cast<int>(header.width),
      header.seed,
      header.update == 0 ? CountMinUpdate::kPlain
                         : CountMinUpdate::kConservative,
      std::move(counters));
  sketch.n_ = header.n;
  return sketch;
}

bool CountMinSketch::ValidateEncoded(const uint8_t* bytes, size_t size) {
  ByteReader reader(bytes, size);
  Header header;
  return ReadHeader(reader, &header) &&
         reader.remaining() == header.cells() * sizeof(uint64_t);
}

CountMinSketch::Shape CountMinSketch::shape() const {
  return {static_cast<uint32_t>(depth_), static_cast<uint32_t>(width_),
          seed_};
}

CountMinSketch::Shape CountMinSketch::EncodedShape(const uint8_t* bytes,
                                                   size_t size) {
  return ShapeOf(ValidHeader(bytes, size));
}

void CountMinSketch::MergeEncoded(const uint8_t* bytes, size_t size) {
  const Header header = ValidHeader(bytes, size);
  MERGEABLE_CHECK_MSG(ShapeOf(header) == shape(),
                      "CountMin merge requires identical shape and seed");
  const uint8_t* cells = bytes + kHeaderBytes;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += LoadLittle64(cells + i * sizeof(uint64_t));
  }
  n_ += header.n;
}

}  // namespace mergeable
