// The Greenwald-Khanna (GK) quantile summary.
//
// GK maintains O((1/epsilon) * log(epsilon * n)) tuples (value, g, delta)
// over a stream of n values and answers any rank query within epsilon * n.
// In the mergeability taxonomy of Agarwal et al. (PODS 2012, result R3)
// GK is the strongest *deterministic* streaming quantile summary but is
// only **one-way mergeable**: it can absorb a stream of new elements
// (Update), yet no algorithm is known that merges two GK summaries while
// keeping both the size and the epsilon bound. It is included as the
// baseline that the fully mergeable randomized summary (R4,
// mergeable_quantiles.h) is measured against.
//
// This implementation uses the standard simplified compress rule (merge
// tuple i into i+1 whenever g_i + g_{i+1} + delta_{i+1} <= 2 epsilon n)
// rather than the banding scheme of the original paper; the error
// guarantee is identical, the size bound is within a constant factor.

#ifndef MERGEABLE_QUANTILES_GK_H_
#define MERGEABLE_QUANTILES_GK_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

class GkSummary {
 public:
  // Requires 0 < epsilon <= 0.5.
  explicit GkSummary(double epsilon);

  // Inserts one value: O(log size) search plus amortized compression.
  void Update(double value);

  // One-way merge: absorbs every element represented by `other` as fresh
  // insertions of its tuple values (value v inserted g times). This keeps
  // this summary's epsilon guarantee over its own inputs but adds
  // other's epsilon * n_other to the error budget — exactly the one-way
  // mergeability limitation the paper describes.
  void AbsorbOneWay(const GkSummary& other);

  // Estimated Rank(x) = |{ y : y <= x }|, within epsilon * n.
  uint64_t Rank(double x) const;

  // A value whose true rank is within epsilon * n of ceil(phi * n).
  // Requires n() > 0.
  double Quantile(double phi) const;

  uint64_t n() const { return n_; }
  double epsilon() const { return epsilon_; }

  // Number of stored tuples.
  size_t size() const { return tuples_.size(); }

  // Serializes the summary; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<GkSummary> DecodeFrom(ByteReader& reader);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

 private:
  struct Tuple {
    double value = 0.0;
    // Number of stream elements represented by this tuple beyond the
    // previous tuple's maximum rank.
    uint64_t g = 0;
    // Uncertainty in this tuple's rank.
    uint64_t delta = 0;
  };

  void Compress();

  double epsilon_;
  uint64_t n_ = 0;
  // Inserts since the last compression; compression runs every
  // ~1/(2 epsilon) inserts.
  uint64_t since_compress_ = 0;
  std::vector<Tuple> tuples_;  // Sorted by value.
};

}  // namespace mergeable

#endif  // MERGEABLE_QUANTILES_GK_H_
