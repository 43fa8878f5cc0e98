// Mergeable ε-approximation of a 2-D point set under rectangle ranges
// (Agarwal et al., PODS 2012, result R5).
//
// A subset A of a point set P is an ε-approximation when for every range
// R in the range space, | |A ∩ R| / |A| - |P ∩ R| / |P| | <= ε. This
// summary maintains a weighted ε-approximation with the same merge-reduce
// hierarchy as the quantile summary (quantiles are the d = 1 special
// case): level-i buffers hold points of weight 2^i and overflowing
// buffers are halved by a pluggable HalvingPolicy whose coin flips keep
// every range's error zero-mean, which is what makes the structure fully
// mergeable with error independent of the merge tree.

#ifndef MERGEABLE_APPROX_EPS_APPROXIMATION_H_
#define MERGEABLE_APPROX_EPS_APPROXIMATION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/approx/halving.h"
#include "mergeable/approx/point.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {

class EpsApproximation {
 public:
  // Levels hold `buffer_size` points each (>= 2; odd rounds up to even).
  EpsApproximation(int buffer_size, uint64_t seed,
                   HalvingPolicy policy = HalvingPolicy::kMorton);

  void Update(const Point2& point);

  // Merges `other` into this summary. Requires identical buffer sizes
  // and halving policies.
  void Merge(const EpsApproximation& other);

  // Estimated |P ∩ rect| (weighted count of stored points inside).
  uint64_t RangeCount(const Rect& rect) const;

  uint64_t n() const { return n_; }
  int buffer_size() const { return buffer_size_; }
  HalvingPolicy policy() const { return policy_; }

  // Total stored points across all levels.
  size_t StoredPoints() const;

  // Every stored point with its weight, for inspection and tests.
  std::vector<std::pair<Point2, uint64_t>> WeightedPoints() const;

  // Serializes the summary (the halving RNG is re-seeded from content
  // on decode, as for MergeableQuantiles); std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<EpsApproximation> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Re-seeds the halving RNG from
  // the content, as DecodeFrom does.
  void Canonicalize();

 private:
  void CompactFrom(size_t level);
  void EnsureLevel(size_t level);

  int buffer_size_;
  HalvingPolicy policy_;
  Rng rng_;
  uint64_t n_ = 0;
  std::vector<std::vector<Point2>> levels_;
};

}  // namespace mergeable

#endif  // MERGEABLE_APPROX_EPS_APPROXIMATION_H_
