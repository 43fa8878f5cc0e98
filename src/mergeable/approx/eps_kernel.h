// ε-kernel for directional width in the plane (Agarwal et al., §6 of
// the TODS version of "Mergeable summaries").
//
// An ε-kernel K of a point set P satisfies, for every direction u,
//
//     width_u(K) >= (1 - ε) * width_u(P)
//
// where width_u(S) = max_{p in S} <p,u> - min_{p in S} <p,u>. The paper
// shows that the classic construction — keep the extreme point in each
// of O(1/sqrt(ε)) evenly spaced directions — is mergeable *for fat
// point sets* (point sets whose width is comparable in all directions):
// the per-direction maximum is an exact mergeable summary (max merges
// losslessly), and fatness turns the direction grid into an ε-kernel.
// For arbitrarily thin sets the affine normalization that general
// ε-kernel algorithms apply is not mergeable; this restriction is the
// paper's and is documented in DESIGN.md (substitutions).
//
// Merging here is EXACT: the merged kernel equals the kernel computed
// from the concatenated stream, whatever the merge tree (tests verify
// bit-for-bit equality).

#ifndef MERGEABLE_APPROX_EPS_KERNEL_H_
#define MERGEABLE_APPROX_EPS_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/approx/point.h"
#include "mergeable/util/bytes.h"

namespace mergeable {

class EpsKernel {
 public:
  // Keeps the extreme point in each of `directions` evenly spaced
  // directions over [0, 2π). Requires directions >= 4.
  explicit EpsKernel(int directions);

  // Directions m = ceil(2π / sqrt(2 ε)) give width error <= ε for fat
  // sets. Requires 0 < epsilon < 1.
  static EpsKernel ForEpsilon(double epsilon);

  void Update(const Point2& point);

  // Per-direction maxima merge exactly. Requires identical direction
  // counts.
  void Merge(const EpsKernel& other);

  // Estimated width of the summarized set in direction `angle`
  // (radians). Never overestimates; underestimates by at most an
  // epsilon fraction for fat sets. Requires a non-empty kernel.
  double DirectionalExtent(double angle) const;

  // The retained extreme points (at most directions(), deduplicated).
  std::vector<Point2> CorePoints() const;

  int directions() const { return static_cast<int>(best_.size()); }

  // Serializes the kernel; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<EpsKernel> DecodeFrom(ByteReader& reader);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}
  uint64_t n() const { return n_; }
  bool empty() const { return n_ == 0; }

 private:
  struct Extreme {
    double dot = 0.0;
    Point2 point;
    bool valid = false;
  };

  uint64_t n_ = 0;
  std::vector<double> cos_;      // Precomputed direction unit vectors.
  std::vector<double> sin_;
  std::vector<Extreme> best_;    // Extreme point per direction.
};

}  // namespace mergeable

#endif  // MERGEABLE_APPROX_EPS_KERNEL_H_
