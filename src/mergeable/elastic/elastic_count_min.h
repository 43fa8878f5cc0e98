// Elastic Count-Min sketch: runtime Expand/Shrink with exact
// error-bound bookkeeping, and merges across mismatched widths.
//
// The core observation (ReSketch-style, see DESIGN.md §15): row hashes
// reduce by plain modulo (util/hash.h), so for power-of-two widths
// w | W every bucket of a width-W row folds onto bucket (i mod w) of a
// width-w row *exactly* — folding is a linear map on the counter
// vector, and Count-Min is a linear sketch, so fold-then-merge equals
// merge-then-fold bit for bit.
//
// The sketch is a *lattice* of levels, one per width the sketch has
// lived at: updates land in the finest (current) level, and each level
// remembers the mass it absorbed. Estimates sum one bucket per level
// per row and take the min over rows — an upper bound exactly as in a
// single-level Count-Min, because every level's bucket contains all of
// the item's mass routed to that level.
//
//   * Shrink(w):  fold every level wider than w into level w. Exact on
//                 counters; the folded mass's error budget widens from
//                 (e/W)·mass to (e/w)·mass — accounted per level.
//   * Expand(W):  open an empty width-W level and direct new updates
//                 there. Old mass stays at its coarse resolution (its
//                 budget does not improve; re-routing it would require
//                 information the sketch discarded).
//   * Merge:      folds the wider operand onto the narrower lattice
//                 (min of the two current widths), then adds level-wise.
//                 Deterministic bytes: commutative AND associative at
//                 the byte level, including across mismatched widths.
//
// ErrorBound() = e · Σ_l mass_l / width_l. Per item,
//   f(x) <= Estimate(x) <= f(x) + ErrorBound()
// where the upper bound holds with probability >= 1 - exp(-depth)
// (per-row Markov at the e-factor, min over rows). A single-level
// sketch of width w gives exactly the classic e·n/w = ε·n.
//
// Invariants (validated at decode):
//   * level widths are powers of two, strictly ascending, <= width()
//   * per row, a level's counters sum to exactly its mass
//   * Σ_l mass_l == n()
//
// Elastic Count-Min is plain-update only: conservative update is not a
// linear function of the input, which would break fold exactness.

#ifndef MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_
#define MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class ElasticCountMin {
 public:
  // `width` must be a power of two (the fold lattice); `depth` rows of
  // 2-universal hashes derived from `seed` — the same construction as
  // CountMinSketch, so a single-level elastic sketch of width w buckets
  // items identically to a plain CountMinSketch(depth, w, seed).
  ElasticCountMin(int depth, int width, uint64_t seed);

  // Rounds e/epsilon up to the next power of two (the bound only
  // tightens) and ceil(ln(1/delta)) rows.
  static ElasticCountMin ForEpsilonDelta(double epsilon, double delta,
                                         uint64_t seed);

  void Update(uint64_t item, uint64_t weight = 1);

  // Upper bound on f(item); see the header comment for the guarantee.
  uint64_t Estimate(uint64_t item) const;

  // Folds every level wider than `new_width` into level `new_width`
  // (power of two < width()). Exact on counters; widens the folded
  // mass's error budget. O(current counters).
  void Shrink(int new_width);

  // Opens an empty level of `new_width` (power of two > width()) and
  // directs future updates there. Existing mass keeps its resolution.
  void Expand(int new_width);

  // Merges lattices. Requires identical depth and seed; widths may
  // differ — the result's current width is the min of the two, and any
  // wider level folds down. Byte-deterministic: commutative and
  // associative on encoded bytes.
  void Merge(const ElasticCountMin& other);

  // e · Σ_l mass_l / width_l: the additive error budget after the
  // sketch's full resize/merge history (== ε·n for a never-resized
  // sketch of width ceil(e/ε)).
  double ErrorBound() const;

  void EncodeTo(ByteWriter& writer) const;
  static std::optional<ElasticCountMin> DecodeFrom(ByteReader& reader);

  // Canonical form in place (core/concepts.h, WireSummary): the decoder
  // keeps only the mass-carrying levels plus the current one, so drop
  // every other mass-0 level. Counters are on the wire as they are.
  void Canonicalize() { DropEmptyLevels(); }

  uint64_t n() const { return n_; }
  int depth() const { return depth_; }
  // The current (finest) width — where updates land.
  int width() const { return width_; }
  uint64_t seed() const { return seed_; }
  size_t num_levels() const { return levels_.size(); }
  // Live counter cells across all levels (the memory footprint; the
  // level geometry keeps this < 2 × depth × width()).
  size_t TotalCounters() const;

 private:
  struct Level {
    uint32_t width = 0;
    uint64_t mass = 0;                // Total weight absorbed here.
    std::vector<uint64_t> counters;   // Row-major depth_ x width.
  };

  // `levels` are decoded levels in ascending width; the current
  // (`width`) level is added zeroed when they lack it.
  ElasticCountMin(int depth, int width, uint64_t seed,
                  std::vector<Level> levels);

  // Returns the level with exactly `width`, inserting an empty one in
  // ascending position if absent.
  Level& EnsureLevel(uint32_t width);
  // Adds `src` (row-major depth_ x src_width) into `dst`, folding
  // buckets mod dst.width. Exact when dst.width divides src_width.
  void FoldInto(Level& dst, const std::vector<uint64_t>& src,
                uint32_t src_width);
  // Drops mass-0 levels except the current one (canonical form).
  void DropEmptyLevels();

  int depth_;
  int width_;  // Current width; every level's width divides or equals it.
  uint64_t seed_;
  uint64_t n_ = 0;
  std::vector<PolynomialHash> hashes_;  // One 2-universal hash per row.
  std::vector<Level> levels_;           // Ascending width; see invariants.
};

}  // namespace mergeable

#endif  // MERGEABLE_ELASTIC_ELASTIC_COUNT_MIN_H_
