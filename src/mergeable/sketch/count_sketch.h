// Count-Sketch (Charikar, Chen, Farach-Colton).
//
// A linear sketch (trivially mergeable, result R6) giving *unbiased*
// frequency estimates: each row hashes items to buckets (2-universal) and
// flips a 4-wise independent sign; the estimate is the median across
// rows of sign * bucket. With width w = O(1/epsilon^2) and depth d =
// O(log 1/delta), |Estimate(x) - f(x)| <= epsilon * sqrt(F2) with
// probability 1 - delta, where F2 is the second frequency moment —
// stronger than Count-Min on skewed data.

#ifndef MERGEABLE_SKETCH_COUNT_SKETCH_H_
#define MERGEABLE_SKETCH_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class CountSketch {
 public:
  // Requires depth >= 1 (odd recommended for a clean median), width >= 1.
  CountSketch(int depth, int width, uint64_t seed);

  void Update(uint64_t item, int64_t weight = 1);

  // Processes `count` unit-weight items; identical results to per-item
  // Update (signed additions commute). Batched like CountMinSketch:
  // row-major blocks, hoisted bucket-hash coefficients, prefetched
  // counter lines.
  void UpdateBatch(const uint64_t* items, size_t count);

  // Unbiased estimate of f(item) (median of per-row estimators).
  int64_t Estimate(uint64_t item) const;

  // Component-wise addition. Requires identical shape and seed.
  void Merge(const CountSketch& other);

  // Serializes the sketch (hashes rebuilt from the seed): "CS02",
  // depth, width, seed and n, then the counters as one packed counter
  // array (ByteWriter::PutCounterArray, zigzagged). Decoding returns
  // std::nullopt on malformed input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<CountSketch> DecodeFrom(ByteReader& reader);

  // What Merge requires to be equal: depth, width and seed. EncodedShape
  // reads it from the header of a payload DecodeFrom accepted.
  struct Shape {
    uint32_t depth = 0;
    uint32_t width = 0;
    uint64_t seed = 0;
    bool operator==(const Shape&) const = default;
  };
  Shape shape() const;
  static Shape EncodedShape(const uint8_t* bytes, size_t size);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

  uint64_t n() const { return n_; }
  int depth() const { return depth_; }
  int width() const { return width_; }

  // Per row, a 2-universal bucket hash and a 4-wise independent sign
  // hash, derived from `seed`. ElasticCountSketch builds its rows with
  // them, so a single-level elastic sketch buckets and signs items
  // exactly as a CountSketch of its depth, width and seed.
  struct RowHashes {
    std::vector<PolynomialHash> bucket;
    std::vector<PolynomialHash> sign;
  };
  static RowHashes MakeRowHashes(int depth, uint64_t seed);

  // The median of the per-row estimates, reordering them; an even count
  // takes the mean of the middle two, rounded toward zero.
  static int64_t MedianOfRows(std::vector<int64_t>& estimates);

 private:
  // `counters` is the decoded row-major array, or empty for a zeroed
  // sketch.
  CountSketch(int depth, int width, uint64_t seed,
              std::vector<int64_t> counters);

  uint64_t Bucket(int row, uint64_t item) const {
    return hashes_.bucket[static_cast<size_t>(row)].Bounded(
        item, static_cast<uint64_t>(width_));
  }
  int Sign(int row, uint64_t item) const {
    return hashes_.sign[static_cast<size_t>(row)].Sign(item);
  }

  int depth_;
  int width_;
  uint64_t seed_;
  uint64_t n_ = 0;
  RowHashes hashes_;
  std::vector<int64_t> counters_;  // Row-major depth_ x width_.
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_COUNT_SKETCH_H_
