// Elastic Count-Min sketch: Count-Min on the fold lattice
// (elastic/lattice.h, DESIGN.md §15.1), so it can Expand and Shrink at
// runtime and merge across mismatched widths. An estimate sums one
// bucket per level per row and takes the min over rows.
//
// ErrorBound() = e · Σ_l mass_l / width_l. Per item,
//   f(x) <= Estimate(x) <= f(x) + ErrorBound()
// where the upper bound holds with probability >= 1 - exp(-depth)
// (per-row Markov at the e-factor, min over rows). A single-level
// sketch of width w gives exactly the classic e·n/w = ε·n.
//
// Cell check at decode: each row of a level sums to exactly its mass.
// Plain-update only: conservative update is not linear in the input,
// which would break fold exactness.

#ifndef MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_
#define MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/elastic/lattice.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class ElasticCountMin : public ElasticLattice<uint64_t> {
 public:
  // `width` must be a power of two (the fold lattice); `depth` rows of
  // CountMinSketch::MakeRowHashes(depth, seed), so a single-level
  // elastic sketch of width w buckets items identically to a plain
  // CountMinSketch(depth, w, seed).
  ElasticCountMin(int depth, int width, uint64_t seed);

  // Rounds e/epsilon up to the next power of two (the bound only
  // tightens) and ceil(ln(1/delta)) rows.
  static ElasticCountMin ForEpsilonDelta(double epsilon, double delta,
                                         uint64_t seed);

  void Update(uint64_t item, uint64_t weight = 1);

  // Upper bound on f(item); see the header comment for the guarantee.
  uint64_t Estimate(uint64_t item) const;

  // e · Σ_l mass_l / width_l: the additive error budget after the
  // sketch's full resize/merge history (== ε·n for a never-resized
  // sketch of width ceil(e/ε)).
  double ErrorBound() const;

  void EncodeTo(ByteWriter& writer) const;
  static std::optional<ElasticCountMin> DecodeFrom(ByteReader& reader);
  // The shape (depth, seed) of a payload DecodeFrom accepted.
  static Shape EncodedShape(const uint8_t* bytes, size_t size);

 private:
  explicit ElasticCountMin(ElasticLattice<uint64_t> lattice);

  std::vector<PolynomialHash> hashes_;  // One 2-universal hash per row.
};

}  // namespace mergeable

#endif  // MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_
