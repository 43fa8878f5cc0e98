// Elastic Count sketch: the unbiased (signed) sibling of
// ElasticCountMin on the same fold lattice (elastic/lattice.h). Folds
// stay exact because the sign hash depends only on (row, item), never
// on the width. An estimate is the median over rows of per-row
// level-summed signed buckets, with a variance-based budget:
//
//   ErrorBound() = sqrt(3 · Σ_l mass_l² / width_l)
//
// per row Chebyshev gives |err| <= ErrorBound() with probability
// >= 2/3, and the median over depth rows amplifies that to
// 1 - exp(-Ω(depth)). A single level of width w gives √(3/w)·n.
//
// Cell check at decode: |counter| <= mass cell-wise (each update moves
// one cell per row by ±weight).

#ifndef MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_
#define MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "mergeable/elastic/lattice.h"
#include "mergeable/sketch/count_sketch.h"
#include "mergeable/util/bytes.h"

namespace mergeable {

class ElasticCountSketch : public ElasticLattice<int64_t> {
 public:
  // `width` must be a power of two. Rows are CountSketch::MakeRowHashes
  // (bucket: 2-universal, sign: 4-wise), so a single-level elastic
  // sketch buckets and signs items identically to
  // CountSketch(depth, width, seed).
  ElasticCountSketch(int depth, int width, uint64_t seed);

  void Update(uint64_t item, int64_t weight = 1);

  // Unbiased estimate of f(item): CountSketch::MedianOfRows of per-row
  // level-summed signed buckets.
  int64_t Estimate(uint64_t item) const;

  // sqrt(3 · Σ_l mass_l² / width_l); see the header comment.
  double ErrorBound() const;

  void EncodeTo(ByteWriter& writer) const;
  static std::optional<ElasticCountSketch> DecodeFrom(ByteReader& reader);
  // The shape (depth, seed) of a payload DecodeFrom accepted.
  static Shape EncodedShape(const uint8_t* bytes, size_t size);

 private:
  explicit ElasticCountSketch(ElasticLattice<int64_t> lattice);

  CountSketch::RowHashes hashes_;
};

}  // namespace mergeable

#endif  // MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_
