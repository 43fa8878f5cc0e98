// Dyadic Count-Min: range counts and quantiles over an integer universe
// via one Count-Min sketch per dyadic level (Cormode & Muthukrishnan).
//
// A range [lo, hi] decomposes into at most 2*log2(u) dyadic intervals;
// summing the per-level sketch estimates answers the range count with a
// one-sided error of O(log(u) * eps' * n). Being a stack of linear
// sketches, the structure is trivially mergeable (result R6) — the
// merged sketch is bit-identical to the single-pass sketch — and thus
// provides the "sketch route" to mergeable quantiles that the paper
// contrasts with its comparison-based summary (R4): smaller update
// cost per level but error growing with log(u) and a universe
// requirement.

#ifndef MERGEABLE_SKETCH_DYADIC_COUNT_MIN_H_
#define MERGEABLE_SKETCH_DYADIC_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/sketch/count_min.h"

namespace mergeable {

class DyadicCountMin {
 public:
  // Covers the universe [0, 2^log_universe). Each of the log_universe+1
  // levels is a CountMin of shape depth x width seeded from `seed`.
  // Requires 1 <= log_universe <= 32, depth >= 1, width >= 1.
  DyadicCountMin(int log_universe, int depth, int width, uint64_t seed);

  // Sizes the per-level sketches so that range-count error stays below
  // epsilon * n with probability 1 - delta per query.
  static DyadicCountMin ForEpsilonDelta(double epsilon, double delta,
                                        int log_universe, uint64_t seed);

  // Adds `weight` occurrences of `value`. Requires value < 2^log_universe.
  void Update(uint64_t value, uint64_t weight = 1);

  // Estimated |{ y in stream : lo <= y <= hi }| (never underestimates).
  // Requires lo <= hi < 2^log_universe.
  uint64_t RangeCount(uint64_t lo, uint64_t hi) const;

  // Estimated Rank(x) = RangeCount(0, x).
  uint64_t Rank(uint64_t x) const { return RangeCount(0, x); }

  // Smallest value whose estimated rank reaches ceil(phi * n), by binary
  // search over the universe. Requires n() > 0.
  uint64_t Quantile(double phi) const;

  // Level-wise Count-Min merge (exact). Requires identical shape & seed.
  void Merge(const DyadicCountMin& other);

  // Serializes the sketch (all levels); decoding returns std::nullopt
  // on malformed input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<DyadicCountMin> DecodeFrom(ByteReader& reader);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

  uint64_t n() const { return n_; }
  int log_universe() const { return log_universe_; }

  // Total counters across all levels.
  size_t TotalCounters() const;

 private:
  int log_universe_;
  uint64_t n_ = 0;
  std::vector<CountMinSketch> levels_;  // levels_[l] counts value >> l.
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_DYADIC_COUNT_MIN_H_
