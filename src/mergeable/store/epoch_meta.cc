#include "mergeable/store/epoch_meta.h"

#include "mergeable/util/check.h"

namespace mergeable {

EpsilonReport AccumulateEpsilon(const std::vector<EpochMeta>& metas,
                                uint64_t lo, uint64_t hi, double epsilon) {
  MERGEABLE_CHECK_MSG(lo <= hi && hi < metas.size(),
                      "AccumulateEpsilon range out of bounds");
  EpsilonReport report;
  report.epsilon = epsilon;
  report.epochs = hi - lo + 1;
  uint64_t shards_total = 0;
  uint64_t shards_received = 0;
  for (uint64_t i = lo; i <= hi; ++i) {
    const EpochMeta& meta = metas[i];
    report.n_received += meta.n;
    report.lost_mass += meta.lost_mass;
    report.lost_mass_estimated |= meta.lost_mass_estimated;
    if (meta.degraded()) ++report.degraded_epochs;
    shards_total += meta.shards_total;
    shards_received += meta.shards_received;
  }
  report.coverage = shards_total == 0
                        ? 1.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  report.received_bound =
      epsilon * static_cast<double>(report.n_received);
  report.full_stream_bound =
      report.received_bound + static_cast<double>(report.lost_mass);
  return report;
}

EpsilonReport AccumulateEpsilonPartial(const std::vector<EpochMeta>& metas,
                                       uint64_t lo, uint64_t hi,
                                       uint64_t covered_hi, double epsilon) {
  MERGEABLE_CHECK_MSG(lo <= covered_hi && covered_hi <= hi,
                      "covered prefix must lie inside the range");
  EpsilonReport report = AccumulateEpsilon(metas, lo, covered_hi, epsilon);
  if (covered_hi == hi) return report;
  // Re-derive the shard tallies the covered accumulation folded into
  // its coverage ratio, then extend them with the uncovered suffix.
  uint64_t shards_total = 0;
  uint64_t shards_received = 0;
  for (uint64_t i = lo; i <= covered_hi; ++i) {
    shards_total += metas[i].shards_total;
    shards_received += metas[i].shards_received;
  }
  MERGEABLE_CHECK_MSG(hi < metas.size(),
                      "AccumulateEpsilonPartial range out of bounds");
  for (uint64_t i = covered_hi + 1; i <= hi; ++i) {
    const EpochMeta& meta = metas[i];
    ++report.epochs;
    ++report.degraded_epochs;
    // The whole epoch is unobserved by this answer: its aggregated mass
    // and whatever it had already lost both widen the bound.
    report.lost_mass += meta.n + meta.lost_mass;
    report.lost_mass_estimated |= meta.lost_mass_estimated;
    shards_total += meta.shards_total;
    // shards_received += 0: offered, not merged.
  }
  report.coverage = shards_total == 0
                        ? 1.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  report.full_stream_bound =
      report.received_bound + static_cast<double>(report.lost_mass);
  return report;
}

}  // namespace mergeable
