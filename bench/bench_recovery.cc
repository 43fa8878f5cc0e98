// Experiment E10 — durability cost and recovery time (DESIGN.md §8).
//
// Two questions about the crash-tolerant coordinator:
//
//  1. What does durability cost while everything works? The log holds
//     one record per accepted report (payload = the report itself, so
//     overhead over the raw payload bytes is just framing), and each
//     checkpoint record carries the whole merged summary — so the
//     checkpoint interval trades write amplification against recovery
//     work.
//  2. How fast is recovery? We crash the coordinator at the last write
//     of the epoch (worst case: maximal durable state), then measure
//     Recover(): checkpoint restore plus replay of the log tail. With
//     frequent checkpoints the tail is short; in log-only mode recovery
//     replays (and re-merges) every report.
//
// Cells report the log's bytes split by record kind ("wal": epoch-begin,
// report and shard-lost records; "snap": checkpoint records), their sum
// normalized by the raw report payload bytes, and recovery wall time
// with the number of records replayed. Expectation: write amplification
// grows as the checkpoint interval shrinks, replay work grows as it
// widens — and recovery is always exact, which the harness asserts.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/segment.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"
#include "mergeable/util/check.h"

namespace mergeable::bench {
namespace {

constexpr double kEpsilon = 0.01;
constexpr uint64_t kEpoch = 1;

BackoffPolicy Policy() {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 5;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 50;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 1000;
  return policy;
}

struct DurableCost {
  uint64_t payload_bytes = 0;   // Raw report payloads (the useful data).
  uint64_t wal_bytes = 0;       // Non-checkpoint records, framing included.
  uint64_t snapshot_bytes = 0;  // Checkpoint records, framing included.
  double recover_ms = 0.0;
  uint64_t replayed = 0;
  bool used_snapshot = false;
};

DurableCost MeasureCell(const std::vector<std::vector<uint64_t>>& shards,
                        uint64_t checkpoint_every) {
  const size_t n_shards = shards.size();
  DurableOptions options;
  options.checkpoint_every = checkpoint_every;

  const auto submit_all = [&](SimulatedTransport& transport) {
    for (size_t shard = 0; shard < n_shards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
      for (uint64_t item : shards[shard]) summary.Update(item);
      const auto frame = MakeReportFrame(summary, shard, kEpoch);
      transport.Submit(shard, frame);
    }
  };

  DurableCost cost;

  // Uninterrupted run: storage cost and the reference answer.
  MemStorage healthy_backend;
  CrashingStorage healthy(&healthy_backend);
  std::vector<uint8_t> reference;
  uint64_t total_writes = 0;
  {
    SimulatedTransport transport{FaultPlan()};
    submit_all(transport);
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    auto result =
        coordinator.RunDurable(transport, n_shards, &healthy, options);
    MERGEABLE_CHECK_MSG(!result.crashed && result.summary.has_value(),
                        "healthy durable run must finish");
    if (result.summary.has_value()) {
      ByteWriter writer;
      result.summary->EncodeTo(writer);
      reference = writer.TakeBytes();
    }
    const std::vector<uint8_t> log =
        healthy.Read(options.wal_file).value_or(std::vector<uint8_t>());
    for (const SegmentRecordView& record : ScanCoordinatorLog(log).records) {
      const bool checkpoint =
          record.level == static_cast<uint32_t>(LogRecordKind::kCheckpoint);
      (checkpoint ? cost.snapshot_bytes : cost.wal_bytes) += record.length;
    }
    total_writes = healthy.writes_attempted();
    for (size_t shard = 0; shard < n_shards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
      for (uint64_t item : shards[shard]) summary.Update(item);
      ByteWriter payload;
      summary.EncodeTo(payload);
      cost.payload_bytes += payload.bytes().size();
    }
  }

  // Crash at the very last write (maximal durable state), then time
  // recovery: checkpoint restore + log-tail replay.
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = total_writes - 1;
  point.mutation_seed = 23;
  MemStorage crashing_backend;
  CrashingStorage crashing(&crashing_backend, point);
  {
    SimulatedTransport transport{FaultPlan()};
    submit_all(transport);
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    const auto result =
        coordinator.RunDurable(transport, n_shards, &crashing, options);
    MERGEABLE_CHECK_MSG(result.crashed, "crash point must fire");
  }
  crashing.Restart();

  Coordinator<SpaceSaving> recovered(kEpoch, Policy());
  const auto start = std::chrono::steady_clock::now();
  const RecoveryInfo info = recovered.Recover(&crashing, options);
  const auto stop = std::chrono::steady_clock::now();
  cost.recover_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  cost.replayed = info.wal_records_applied;
  cost.used_snapshot = info.used_snapshot;

  // Recovery must be exact: finish the epoch and compare to the
  // uninterrupted answer byte for byte.
  SimulatedTransport transport{FaultPlan()};
  submit_all(transport);
  auto result = recovered.ResumeDurable(transport, n_shards);
  MERGEABLE_CHECK_MSG(!result.crashed && result.summary.has_value(),
                      "resume must finish");
  if (result.summary.has_value()) {
    ByteWriter writer;
    result.summary->EncodeTo(writer);
    MERGEABLE_CHECK_MSG(writer.bytes() == reference,
                        "recovered result must be byte-identical");
  }
  return cost;
}

int Main() {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 1 << 18;
  spec.universe = 1 << 13;
  spec.alpha = 1.1;
  const auto stream = GenerateStream(spec, 2);

  std::printf(
      "E10: workload %s, n=%zu, eps=%g, SpaceSaving reports;\n"
      "write amp = (report + checkpoint record bytes) / raw payload bytes;\n"
      "recovery crashes at the epoch's last write, asserts byte-exact "
      "recovery\n",
      ToString(spec).c_str(), stream.size(), kEpsilon);

  const size_t shard_counts[] = {4, 16, 64};
  const uint64_t intervals[] = {0, 4, 16};  // 0 = log only.

  for (size_t n_shards : shard_counts) {
    const auto shards =
        PartitionStream(stream, n_shards, PartitionPolicy::kRandom, 3);
    PrintHeader("durability cost, " + std::to_string(n_shards) + " shards",
                {"ckpt every", "wal KiB", "snap KiB", "write amp",
                 "recover ms", "replayed", "snapshot"});
    for (uint64_t interval : intervals) {
      const DurableCost cost = MeasureCell(shards, interval);
      PrintRow({interval == 0 ? std::string("never")
                              : std::to_string(interval),
                FormatDouble(static_cast<double>(cost.wal_bytes) / 1024.0, 1),
                FormatDouble(
                    static_cast<double>(cost.snapshot_bytes) / 1024.0, 1),
                FormatDouble(
                    static_cast<double>(cost.wal_bytes + cost.snapshot_bytes) /
                        static_cast<double>(cost.payload_bytes), 3),
                FormatDouble(cost.recover_ms, 3), FormatU64(cost.replayed),
                cost.used_snapshot ? "yes" : "no"});
    }
  }
  return 0;
}

}  // namespace
}  // namespace mergeable::bench

int main() { return mergeable::bench::RunAndDump("recovery", mergeable::bench::Main); }
