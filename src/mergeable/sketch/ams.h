// AMS "tug-of-war" sketch for the second frequency moment F2 = sum f(x)^2
// (Alon, Matias, Szegedy).
//
// Each cell keeps Z = sum_x sign(x) * f(x) with 4-wise independent signs;
// E[Z^2] = F2 and Var[Z^2] <= 2 F2^2. Averaging `cols` cells reduces the
// variance; taking the median of `rows` averages boosts the confidence
// (median-of-means). The sketch is linear, so merging is component-wise
// addition (result R6 of the paper).
//
// With cols = O(1/epsilon^2) and rows = O(log 1/delta):
//     |EstimateF2() - F2| <= epsilon * F2   with probability 1 - delta.

#ifndef MERGEABLE_SKETCH_AMS_H_
#define MERGEABLE_SKETCH_AMS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class AmsSketch {
 public:
  // Requires rows >= 1 (odd recommended), cols >= 1.
  AmsSketch(int rows, int cols, uint64_t seed);

  void Update(uint64_t item, int64_t weight = 1);

  // Median-of-means estimate of F2.
  double EstimateF2() const;

  // Component-wise addition. Requires identical shape and seed.
  void Merge(const AmsSketch& other);

  // Serializes the sketch; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<AmsSketch> DecodeFrom(ByteReader& reader);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  // `values` is the decoded row-major array, or empty for a zeroed
  // sketch.
  AmsSketch(int rows, int cols, uint64_t seed, std::vector<int64_t> values);

  int rows_;
  int cols_;
  uint64_t seed_;
  std::vector<PolynomialHash> sign_hashes_;  // 4-wise, one per cell.
  std::vector<int64_t> cells_;               // Row-major rows_ x cols_.
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_AMS_H_
