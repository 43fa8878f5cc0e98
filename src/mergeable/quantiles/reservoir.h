// Mergeable uniform random sample (reservoir sampling).
//
// A uniform sample of size s answers rank queries within eps * n with
// constant probability when s = Theta(1/eps^2) — quadratically worse than
// the mergeable quantile summary (R4), which is exactly the gap the paper
// motivates. Included as the classical baseline.
//
// Merging is exact: the merged reservoir is distributed as a uniform
// without-replacement sample of the union. The number of survivors taken
// from each side follows the hypergeometric distribution (sampled here by
// sequential simulation), then that many elements are drawn uniformly
// from the side's reservoir.

#ifndef MERGEABLE_QUANTILES_RESERVOIR_H_
#define MERGEABLE_QUANTILES_RESERVOIR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {

class ReservoirSample {
 public:
  // A reservoir holding at most `sample_size` values. Requires
  // sample_size >= 1.
  ReservoirSample(int sample_size, uint64_t seed);

  void Update(double value);

  // Merges `other` into this reservoir; the result is a uniform sample
  // of the combined population. Requires identical sample sizes.
  void Merge(const ReservoirSample& other);

  // Estimated Rank(x) = |{ y : y <= x }|, scaled from the sample.
  uint64_t Rank(double x) const;

  // Sample quantile scaled to the population. Requires n() > 0.
  double Quantile(double phi) const;

  uint64_t n() const { return n_; }

  // Serializes the sample (the RNG is re-seeded from content on
  // decode); std::nullopt on malformed input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<ReservoirSample> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Re-seeds the sampling RNG from
  // the content, as DecodeFrom does.
  void Canonicalize();

  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  int sample_size_;
  Rng rng_;
  uint64_t n_ = 0;  // Population size represented.
  std::vector<double> values_;
};

}  // namespace mergeable

#endif  // MERGEABLE_QUANTILES_RESERVOIR_H_
