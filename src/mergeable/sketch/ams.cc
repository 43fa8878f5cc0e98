#include "mergeable/sketch/ams.h"

#include <algorithm>
#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

AmsSketch::AmsSketch(int rows, int cols, uint64_t seed)
    : AmsSketch(rows, cols, seed, {}) {}

AmsSketch::AmsSketch(int rows, int cols, uint64_t seed,
                     std::vector<int64_t> values)
    : rows_(rows), cols_(cols), seed_(seed), cells_(std::move(values)) {
  MERGEABLE_CHECK_MSG(rows >= 1 && cols >= 1,
                      "AMS needs rows >= 1 and cols >= 1");
  const size_t cells = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  sign_hashes_.reserve(cells);
  for (size_t cell = 0; cell < cells; ++cell) {
    sign_hashes_.emplace_back(/*degree=*/4, MixHash(cell, seed));
  }
  if (cells_.empty()) cells_.assign(cells, 0);
}

void AmsSketch::Update(uint64_t item, int64_t weight) {
  for (size_t cell = 0; cell < cells_.size(); ++cell) {
    cells_[cell] += sign_hashes_[cell].Sign(item) * weight;
  }
}

double AmsSketch::EstimateF2() const {
  std::vector<double> row_means(static_cast<size_t>(rows_));
  for (int row = 0; row < rows_; ++row) {
    double sum = 0.0;
    for (int col = 0; col < cols_; ++col) {
      const auto z = static_cast<double>(
          cells_[static_cast<size_t>(row) * cols_ + col]);
      sum += z * z;
    }
    row_means[static_cast<size_t>(row)] = sum / static_cast<double>(cols_);
  }
  const size_t mid = row_means.size() / 2;
  std::nth_element(row_means.begin(),
                   row_means.begin() + static_cast<ptrdiff_t>(mid),
                   row_means.end());
  return row_means[mid];
}

void AmsSketch::Merge(const AmsSketch& other) {
  MERGEABLE_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_ &&
                          seed_ == other.seed_,
                      "AMS merge requires identical shape and seed");
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
}

namespace {
constexpr uint32_t kAmsMagic = 0x31304d41;  // "AM01"
}  // namespace

void AmsSketch::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kAmsMagic);
  writer.PutU32(static_cast<uint32_t>(rows_));
  writer.PutU32(static_cast<uint32_t>(cols_));
  writer.PutU64(seed_);
  writer.PutI64Array(cells_);
}

std::optional<AmsSketch> AmsSketch::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t rows = 0;
  uint32_t cols = 0;
  uint64_t seed = 0;
  if (!reader.GetU32(&magic) || magic != kAmsMagic) return std::nullopt;
  if (!reader.GetU32(&rows) || rows < 1 || rows > 256) return std::nullopt;
  if (!reader.GetU32(&cols) || cols < 1 || cols > (1u << 20)) {
    return std::nullopt;
  }
  if (!reader.GetU64(&seed)) return std::nullopt;
  if (reader.remaining() !=
      static_cast<size_t>(rows) * cols * sizeof(int64_t)) {
    return std::nullopt;
  }
  std::vector<int64_t> cells;
  if (!reader.GetWordVector(static_cast<size_t>(rows) * cols, &cells)) {
    return std::nullopt;
  }
  return AmsSketch(static_cast<int>(rows), static_cast<int>(cols), seed,
                   std::move(cells));
}

}  // namespace mergeable
