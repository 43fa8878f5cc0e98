// The fully mergeable randomized quantile summary of Agarwal et al.
// (PODS 2012, §4 / result R4).
//
// The summary is a hierarchy of buffers. The buffer at level i holds at
// most `buffer_size` values, each representing 2^i stream elements. Two
// core operations from the paper:
//
//  * same-weight merge: when a level overflows, its sorted contents are
//    halved by keeping every second element starting at a uniformly
//    random offset; the survivors are promoted one level up (weight
//    doubles). The random offset makes the rank error of each halving a
//    zero-mean +/- 2^(i-1) random variable, so error accumulates like a
//    random walk — O(sqrt(#compactions)) — instead of linearly. This is
//    the paper's key idea and the reason the summary is *fully*
//    mergeable: the guarantee is independent of the merge tree.
//  * logarithmic method: Merge() concatenates the two hierarchies level
//    by level and lets overflow compactions cascade like binary-addition
//    carries.
//
// With buffer_size b = O((1/eps) * sqrt(log(1/eps))) every rank query is
// within eps * n with high probability, using O(b * log(n / b)) space.
//
// OffsetPolicy::kAlwaysLow replaces the random offset with a fixed one;
// this is the ablation used by the E3 benchmark to demonstrate that the
// deterministic variant's error grows linearly with merge-tree depth,
// exactly as the paper's analysis predicts.

#ifndef MERGEABLE_QUANTILES_MERGEABLE_QUANTILES_H_
#define MERGEABLE_QUANTILES_MERGEABLE_QUANTILES_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {

// How the halving step picks survivors from a sorted buffer.
enum class OffsetPolicy {
  // Uniformly random start offset (the paper's algorithm).
  kRandom,
  // Always keep positions 0, 2, 4, ... — deterministic, biased; for the
  // ablation benchmark only.
  kAlwaysLow,
};

class MergeableQuantiles {
 public:
  // Creates a summary whose levels hold `buffer_size` values each
  // (buffer_size >= 2; odd sizes are rounded up to even). `seed` drives
  // the random offsets.
  MergeableQuantiles(int buffer_size, uint64_t seed,
                     OffsetPolicy policy = OffsetPolicy::kRandom);

  // Creates a summary targeting rank error <= epsilon * n with constant
  // failure probability. Requires 0 < epsilon <= 0.5.
  static MergeableQuantiles ForEpsilon(double epsilon, uint64_t seed);

  void Update(double value);

  // Processes `count` values with the same epsilon * n guarantee as
  // calling Update on each (the guarantee holds for every stream order,
  // so feeding the batch sorted is just another valid stream). The batch
  // is sorted once up front and fed to level 0 in whole-buffer runs;
  // the cascade's compactions then find their buffers already sorted and
  // skip the per-buffer sort, which is where per-item ingestion spends
  // most of its time.
  void UpdateBatch(const double* values, size_t count);

  // Processes `weight` occurrences of `value` in O(log weight) buffer
  // appends: the weight is decomposed into powers of two and the value
  // is inserted at the matching levels. Equivalent to calling Update
  // `weight` times (same guarantee; different, equally valid, random
  // state evolution).
  void UpdateWeighted(double value, uint64_t weight);

  // Merges `other` into this summary. Requires identical buffer sizes.
  void Merge(const MergeableQuantiles& other);

  // Estimated Rank(x) = |{ y : y <= x }|.
  uint64_t Rank(double x) const;

  // A value whose true rank is close to ceil(phi * n). Requires n() > 0.
  double Quantile(double phi) const;

  uint64_t n() const { return n_; }
  int buffer_size() const { return buffer_size_; }

  // Total number of stored values across all levels.
  size_t StoredValues() const;

  // Number of levels currently in use.
  size_t Levels() const { return levels_.size(); }

  // Total halving operations performed (per-level error events); exposed
  // for the E3 benchmark and tests.
  uint64_t Compactions() const { return compactions_; }

  // Serializes the summary. The offset RNG state is NOT captured: the
  // decoder re-seeds deterministically from the content, which affects
  // only future coin flips, never the guarantee.
  void EncodeTo(ByteWriter& writer) const;

  // Reconstructs a summary; std::nullopt on malformed input.
  static std::optional<MergeableQuantiles> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Re-seeds the offset RNG from the
  // content, as DecodeFrom does.
  void Canonicalize();

 private:
  // Halves level `level` if it holds >= buffer_size_ values, promoting
  // survivors; cascades upward.
  void CompactFrom(size_t level);

  void EnsureLevel(size_t level);

  int buffer_size_;
  OffsetPolicy policy_;
  Rng rng_;
  uint64_t n_ = 0;
  uint64_t compactions_ = 0;
  // levels_[i] holds values of weight 2^i, unsorted between compactions.
  std::vector<std::vector<double>> levels_;
};

}  // namespace mergeable

#endif  // MERGEABLE_QUANTILES_MERGEABLE_QUANTILES_H_
