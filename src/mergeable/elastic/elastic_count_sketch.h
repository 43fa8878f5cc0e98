// Elastic Count sketch: the unbiased (signed) sibling of
// ElasticCountMin — runtime Expand/Shrink plus mismatched-width merges
// over the same power-of-two fold lattice (see elastic_count_min.h and
// DESIGN.md §15 for the fold-exactness argument; it carries over
// verbatim because the sign hash depends only on (row, item), never on
// the width, so folding bucket i onto bucket i mod w adds signed
// contributions of the *same* items with the *same* signs).
//
// Estimates sum one signed bucket per level per row and take the
// median over rows. The error budget is variance-based:
//
//   ErrorBound() = sqrt(3 · Σ_l mass_l² / width_l)
//
// per row Chebyshev gives |err| <= ErrorBound() with probability
// >= 2/3 (Var_row <= Σ_l F2(level l)/width_l <= Σ_l mass_l²/width_l),
// and the median over depth rows amplifies that to 1 - exp(-Ω(depth)).
// A single-level sketch of width w recovers the classic √(3/w)·n.
//
// Invariants (validated at decode): level widths are powers of two,
// strictly ascending, <= width(); |counter| <= mass cell-wise (each
// update moves one cell per row by ±weight); Σ_l mass_l == n().

#ifndef MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_
#define MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class ElasticCountSketch {
 public:
  // `width` must be a power of two. Hash construction matches
  // CountSketch (bucket: 2-universal, sign: 4-wise from the paired
  // row seed), so a single-level elastic sketch buckets and signs
  // items identically to CountSketch(depth, width, seed).
  ElasticCountSketch(int depth, int width, uint64_t seed);

  void Update(uint64_t item, int64_t weight = 1);

  // Unbiased estimate of f(item): median over rows of per-row
  // level-summed signed buckets.
  int64_t Estimate(uint64_t item) const;

  // Same lattice operations as ElasticCountMin.
  void Shrink(int new_width);
  void Expand(int new_width);

  // Requires identical depth and seed; widths may differ (wider operand
  // folds down). Byte-deterministic: commutative and associative.
  void Merge(const ElasticCountSketch& other);

  // sqrt(3 · Σ_l mass_l² / width_l); see the header comment.
  double ErrorBound() const;

  void EncodeTo(ByteWriter& writer) const;
  static std::optional<ElasticCountSketch> DecodeFrom(ByteReader& reader);

  // Canonical form in place (core/concepts.h, WireSummary): the decoder
  // keeps only the mass-carrying levels plus the current one, so drop
  // every other mass-0 level. Counters are on the wire as they are.
  void Canonicalize() { DropEmptyLevels(); }

  uint64_t n() const { return n_; }
  int depth() const { return depth_; }
  int width() const { return width_; }
  uint64_t seed() const { return seed_; }
  size_t num_levels() const { return levels_.size(); }
  size_t TotalCounters() const;

 private:
  struct Level {
    uint32_t width = 0;
    uint64_t mass = 0;               // Total |weight| absorbed here.
    std::vector<int64_t> counters;   // Row-major depth_ x width.
  };

  // `levels` are decoded levels in ascending width; the current
  // (`width`) level is added zeroed when they lack it.
  ElasticCountSketch(int depth, int width, uint64_t seed,
                     std::vector<Level> levels);

  Level& EnsureLevel(uint32_t width);
  void FoldInto(Level& dst, const std::vector<int64_t>& src,
                uint32_t src_width);
  void DropEmptyLevels();

  int depth_;
  int width_;
  uint64_t seed_;
  uint64_t n_ = 0;
  std::vector<PolynomialHash> bucket_hashes_;
  std::vector<PolynomialHash> sign_hashes_;
  std::vector<Level> levels_;  // Ascending width.
};

}  // namespace mergeable

#endif  // MERGEABLE_ELASTIC_ELASTIC_COUNT_SKETCH_H_
