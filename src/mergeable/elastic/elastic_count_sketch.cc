#include "mergeable/elastic/elastic_count_sketch.h"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

namespace mergeable {
namespace {

constexpr uint32_t kElasticCountSketchMagic = 0x32534345;  // "ECS2"

// Per row, the cells' magnitudes sum to at most the level's mass: an
// update of weight w adds +-w to one cell per row and |w| to the mass,
// and folds and merges add both sides.
bool RowMagnitudesWithinMass(std::span<const int64_t> counters,
                             uint32_t depth, uint32_t width, uint64_t mass) {
  for (uint32_t row = 0; row < depth; ++row) {
    uint64_t row_sum = 0;
    for (int64_t cell : counters.subspan(size_t{row} * width, width)) {
      const uint64_t magnitude = cell < 0 ? ~static_cast<uint64_t>(cell) + 1
                                          : static_cast<uint64_t>(cell);
      if (__builtin_add_overflow(row_sum, magnitude, &row_sum)) return false;
    }
    if (row_sum > mass) return false;
  }
  return true;
}

}  // namespace

ElasticCountSketch::ElasticCountSketch(int depth, int width, uint64_t seed)
    : ElasticLattice(depth, width, seed),
      hashes_(CountSketch::MakeRowHashes(depth, seed)) {}

ElasticCountSketch::ElasticCountSketch(ElasticLattice<int64_t> lattice)
    : ElasticLattice(std::move(lattice)),
      hashes_(CountSketch::MakeRowHashes(depth(), seed())) {}

void ElasticCountSketch::Update(uint64_t item, int64_t weight) {
  int64_t* cells = WritableCurrent();
  const uint64_t w = static_cast<uint64_t>(width());
  for (int row = 0; row < depth(); ++row) {
    const size_t r = static_cast<size_t>(row);
    cells[r * w + hashes_.bucket[r](item) % w] +=
        hashes_.sign[r].Sign(item) * weight;
  }
  AddMass(static_cast<uint64_t>(weight < 0 ? -weight : weight));
}

int64_t ElasticCountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> estimates(static_cast<size_t>(depth()));
  for (int row = 0; row < depth(); ++row) {
    const size_t r = static_cast<size_t>(row);
    estimates[r] =
        hashes_.sign[r].Sign(item) * RowSum(row, hashes_.bucket[r](item));
  }
  return CountSketch::MedianOfRows(estimates);
}

double ElasticCountSketch::ErrorBound() const {
  double variance = 0.0;
  for (const Level& level : levels()) {
    const double mass = static_cast<double>(level.mass);
    variance += mass * mass / static_cast<double>(level.width);
  }
  return std::sqrt(3.0 * variance);
}

void ElasticCountSketch::EncodeTo(ByteWriter& writer) const {
  EncodeLattice(writer, kElasticCountSketchMagic);
}

std::optional<ElasticCountSketch> ElasticCountSketch::DecodeFrom(
    ByteReader& reader) {
  std::optional<ElasticLattice> lattice =
      DecodeLattice(reader, kElasticCountSketchMagic, &RowMagnitudesWithinMass);
  if (!lattice.has_value()) return std::nullopt;
  return ElasticCountSketch(std::move(*lattice));
}

ElasticCountSketch::Shape ElasticCountSketch::EncodedShape(
    const uint8_t* bytes, size_t size) {
  return EncodedShapeOf(bytes, size, kElasticCountSketchMagic);
}

}  // namespace mergeable
