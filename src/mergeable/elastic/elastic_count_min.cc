#include "mergeable/elastic/elastic_count_min.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "mergeable/sketch/count_min.h"
#include "mergeable/util/check.h"

namespace mergeable {
namespace {

constexpr uint32_t kElasticCountMinMagic = 0x324d4345;  // "ECM2"

// Per row, the level's counters sum to exactly its mass.
bool RowSumsEqualMass(std::span<const uint64_t> counters, uint32_t depth,
                      uint32_t width, uint64_t mass) {
  for (uint32_t row = 0; row < depth; ++row) {
    uint64_t row_sum = 0;
    for (uint64_t cell : counters.subspan(size_t{row} * width, width)) {
      if (__builtin_add_overflow(row_sum, cell, &row_sum)) return false;
    }
    if (row_sum != mass) return false;
  }
  return true;
}

}  // namespace

ElasticCountMin::ElasticCountMin(int depth, int width, uint64_t seed)
    : ElasticLattice(depth, width, seed),
      hashes_(CountMinSketch::MakeRowHashes(depth, seed)) {}

ElasticCountMin::ElasticCountMin(ElasticLattice<uint64_t> lattice)
    : ElasticLattice(std::move(lattice)),
      hashes_(CountMinSketch::MakeRowHashes(depth(), seed())) {}

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
  uint64_t* cells = WritableCurrent();
  const uint64_t w = static_cast<uint64_t>(width());
  for (int row = 0; row < depth(); ++row) {
    cells[static_cast<size_t>(row) * w +
          hashes_[static_cast<size_t>(row)](item) % w] += weight;
  }
  AddMass(weight);
}

uint64_t ElasticCountMin::Estimate(uint64_t item) const {
  uint64_t best = ~uint64_t{0};
  for (int row = 0; row < depth(); ++row) {
    best = std::min(best,
                    RowSum(row, hashes_[static_cast<size_t>(row)](item)));
  }
  return best;
}

double ElasticCountMin::ErrorBound() const {
  double bound = 0.0;
  for (const Level& level : levels()) {
    bound += std::exp(1.0) * static_cast<double>(level.mass) /
             static_cast<double>(level.width);
  }
  return bound;
}

void ElasticCountMin::EncodeTo(ByteWriter& writer) const {
  EncodeLattice(writer, kElasticCountMinMagic);
}

std::optional<ElasticCountMin> ElasticCountMin::DecodeFrom(
    ByteReader& reader) {
  std::optional<ElasticLattice> lattice =
      DecodeLattice(reader, kElasticCountMinMagic, &RowSumsEqualMass);
  if (!lattice.has_value()) return std::nullopt;
  return ElasticCountMin(std::move(*lattice));
}

ElasticCountMin::Shape ElasticCountMin::EncodedShape(const uint8_t* bytes,
                                                     size_t size) {
  return EncodedShapeOf(bytes, size, kElasticCountMinMagic);
}

}  // namespace mergeable
