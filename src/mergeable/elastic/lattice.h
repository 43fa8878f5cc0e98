// The power-of-two fold lattice under both elastic sketches
// (ElasticCountMin, ElasticCountSketch; DESIGN.md §15.1). Buckets are
// hash mod width, so for power-of-two widths w | W, bucket i of a
// width-W row folds exactly onto bucket i mod w of a width-w row, and
// fold-then-merge equals merge-then-fold bit for bit.
//
// A lattice is one level per width the sketch has lived at, widths
// strictly ascending, each with its counters (row-major depth x width)
// and the mass it absorbed. Updates land in the last (current) level.
// Shrink folds every wider level into the new width; Expand opens an
// empty wider level (old mass keeps its coarse resolution); Merge
// folds the wider operand onto the narrower current width, then adds
// level-wise, byte-commutative and byte-associative. A level nobody
// has written holds no counters until an Update or a fold writes into
// it, so opening one (constructor, Expand, a decoded header) allocates
// nothing.
//
// Decode checks: power-of-two widths, strictly ascending, no wider than
// width(); mass > 0 per level on the wire; at most 29 levels; the
// sketch's per-level cell check; Σ_l mass_l == n(); nothing left over.
// The sketches derive from ElasticLattice<Counter> and add only their
// magic, row hashes, Update, Estimate, ErrorBound and cell check.

#ifndef MERGEABLE_ELASTIC_LATTICE_H_
#define MERGEABLE_ELASTIC_LATTICE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

template <typename Counter>
class ElasticLattice {
 public:
  static constexpr uint32_t kMaxWidth = 1u << 28;

  // What Merge requires to be equal. Width is not part of it: mixed
  // widths merge by folding.
  struct Shape {
    uint32_t depth = 0;
    uint64_t seed = 0;
    bool operator==(const Shape&) const = default;
  };
  Shape shape() const { return {static_cast<uint32_t>(depth_), seed_}; }

  // Folds every level wider than `new_width` into level `new_width`
  // (power of two < width()). Exact on counters. O(current counters).
  void Shrink(int new_width);

  // Opens an empty level of `new_width` (power of two > width(), at
  // most 2^28) and directs future updates there.
  void Expand(int new_width);

  // Merges lattices of equal depth and seed; widths may differ. The
  // result's current width is the min of the two.
  void Merge(const ElasticLattice& other);

  // Canonical form in place (core/concepts.h, WireSummary): the decoder
  // keeps only the mass-carrying levels plus the current one, so drop
  // every other mass-0 level. Counters are on the wire as they are.
  void Canonicalize() { DropEmptyLevels(); }

  uint64_t n() const { return n_; }
  int depth() const { return depth_; }
  // The current (finest) width, where updates land.
  int width() const { return width_; }
  uint64_t seed() const { return seed_; }
  size_t num_levels() const { return levels_.size(); }
  // Allocated counter cells across all levels (the memory footprint;
  // the level geometry keeps this < 2 x depth x width()).
  size_t TotalCounters() const;

 protected:
  struct Level {
    uint32_t width = 0;
    uint64_t mass = 0;              // Total |weight| absorbed here.
    std::vector<Counter> counters;  // Row-major depth x width, or empty
                                    // while nothing was written here.
  };

  // Whether a decoded level's counters are consistent with its mass:
  // the one decode check the sketches differ in.
  using CellCheck = bool (*)(std::span<const Counter> counters,
                             uint32_t depth, uint32_t width, uint64_t mass);

  // `width` must be a power of two in [1, 2^28], `depth` in [1, 64].
  ElasticLattice(int depth, int width, uint64_t seed);

  // The current level's counters, allocated on the first write; an
  // Update adds to one cell per row, then calls AddMass.
  Counter* WritableCurrent();
  void AddMass(uint64_t mass) {
    levels_.back().mass += mass;
    n_ += mass;
  }

  // Σ over the levels that hold mass of row `row`'s bucket for `hash`.
  Counter RowSum(int row, uint64_t hash) const;

  const std::vector<Level>& levels() const { return levels_; }

  // The level codec of ECM1 and ECS1: u32 magic, u32 depth, u32 width,
  // u64 seed, u64 n, u32 level count, then per mass-carrying level
  // u32 width, u64 mass and depth x width counters.
  void EncodeLattice(ByteWriter& writer, uint32_t magic) const;
  // std::nullopt unless the bytes are one lattice of `magic` whose every
  // level passes `check`, with nothing left over.
  static std::optional<ElasticLattice> DecodeLattice(ByteReader& reader,
                                                     uint32_t magic,
                                                     CellCheck check);
  // The shape in the header of a payload DecodeLattice accepted.
  static Shape EncodedShapeOf(const uint8_t* bytes, size_t size,
                              uint32_t magic);

 private:
  // The level with exactly `width`, inserted empty in ascending
  // position if absent.
  Level& EnsureLevel(uint32_t width);
  // Adds `src`'s counters into `dst`, folding buckets mod dst.width, and
  // its mass. Exact when dst.width divides src.width.
  void FoldInto(Level& dst, const Level& src);
  // Drops mass-0 levels except the current one (canonical form).
  void DropEmptyLevels();

  int depth_;
  int width_;  // Current width; every level's width divides or equals it.
  uint64_t seed_;
  uint64_t n_ = 0;
  std::vector<Level> levels_;  // Ascending width; the last is current.
};

extern template class ElasticLattice<uint64_t>;
extern template class ElasticLattice<int64_t>;

}  // namespace mergeable

#endif  // MERGEABLE_ELASTIC_LATTICE_H_
