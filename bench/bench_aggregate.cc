// Experiment E9 — aggregation under faults.
//
// The mergeability theorem makes partial aggregation sound: whatever
// subset of shards survives the network, the merged summary keeps
// error <= eps * n_received on the received mass. This harness drives
// the fault-tolerant coordinator (mergeable/aggregate) across a sweep
// of fault severities and prints per row the achieved coverage, the
// retries spent, and max|estimate - truth| over the received shards
// normalized by eps * n_received. The coordinator folds left-deep in
// shard order, like the ingest service's seal; E1 (bench_merge_topology)
// covers other merge trees. The robustness claim holds if the error
// column stays <= 1 at every severity — the bound must not decay as the
// network gets worse, only the coverage.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"

namespace mergeable::bench {
namespace {

constexpr double kEpsilon = 0.01;
constexpr size_t kShards = 32;
constexpr uint64_t kEpoch = 1;

// One fault severity step: all transient fault kinds scale together and
// `dead` shards never answer.
struct Severity {
  const char* name;
  double transient;  // drop + corruption + duplicate + delay scale.
  size_t dead;
};

BackoffPolicy Policy() {
  BackoffPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 200;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 5000;
  return policy;
}

FaultPlan PlanFor(const Severity& severity, uint64_t seed) {
  FaultSpec spec;
  spec.drop_probability = 0.5 * severity.transient;
  spec.bit_flip_probability = 0.25 * severity.transient;
  spec.truncate_probability = 0.1 * severity.transient;
  spec.duplicate_probability = 0.1 * severity.transient;
  spec.delay_probability = 0.2 * severity.transient;
  spec.delay_ms = 400;
  FaultPlan plan(spec, seed);
  // Kill a deterministic spread of shards.
  for (size_t i = 0; i < severity.dead; ++i) {
    plan.KillShard((i * kShards) / severity.dead + 1);
  }
  return plan;
}

int Main() {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 1 << 20;
  spec.universe = 1 << 15;
  spec.alpha = 1.1;
  const auto stream = GenerateStream(spec, 2);
  const auto shards =
      PartitionStream(stream, kShards, PartitionPolicy::kRandom, 3);

  std::printf(
      "E9: workload %s, n=%zu, eps=%g, %zu shards; columns are\n"
      "coverage / retries / err on received mass normalized by "
      "eps*n_received\n",
      ToString(spec).c_str(), stream.size(), kEpsilon, kShards);

  const Severity severities[] = {
      {"healthy", 0.0, 0},     {"mild", 0.2, 0},  {"rough", 0.5, 2},
      {"hostile", 0.8, 5},     {"dying", 1.0, 12},
  };

  PrintHeader("aggregation vs faults",
              {"severity", "coverage", "retries", "norm. err"});
  for (const Severity& severity : severities) {
    SimulatedTransport transport{PlanFor(severity, /*seed=*/97)};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    const auto result = coordinator.Run(transport, kShards);

    // Ground truth over exactly the shards that were received.
    std::map<uint64_t, uint64_t> truth;
    uint64_t n_received = 0;
    for (const ShardOutcome& outcome : result.outcomes) {
      if (outcome.status != ShardOutcome::Status::kReceived) continue;
      for (uint64_t item : shards[outcome.shard_id]) ++truth[item];
      n_received += shards[outcome.shard_id].size();
    }

    std::vector<std::string> row = {severity.name};
    row.push_back(FormatDouble(result.Coverage(), 3));
    row.push_back(FormatU64(result.retries));
    if (result.summary.has_value() && n_received > 0) {
      const uint64_t err = MaxAbsError(truth, [&](uint64_t item) {
        return result.summary->Count(item);
      });
      row.push_back(FormatDouble(
          static_cast<double>(err) /
          (kEpsilon * static_cast<double>(n_received)), 4));
    } else {
      row.push_back("n/a");
    }
    PrintRow(row);
  }
  return 0;
}

}  // namespace
}  // namespace mergeable::bench

int main() { return mergeable::bench::RunAndDump("aggregate", mergeable::bench::Main); }
