// Crash recovery: the coordinator surviving its own death mid-epoch.
//
// Workers summarize their shards and ship framed reports over a faulty
// network (see wire_merge for that half of the story). This example is
// about the other failure domain — the aggregator process itself. In
// durable mode the coordinator appends every accepted report to its log
// *before* merging it, and every few reports appends a checkpoint of the
// partial merge to the same log, through a Storage backend. Here the
// storage is rigged to tear a write halfway through the epoch, killing
// the run; a fresh coordinator then recovers from the same storage —
// newest checkpoint in the log, idempotent replay of the records past
// it, torn-tail truncation — and resumes, refetching only the shards
// that were never durably recorded. The punchline is exactness: the recovered epoch's summary
// is byte-identical to the summary of an uninterrupted run.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"
#include "mergeable/util/bytes.h"

namespace {

using mergeable::BackoffPolicy;
using mergeable::ByteWriter;
using mergeable::Coordinator;
using mergeable::CrashMode;
using mergeable::CrashPoint;
using mergeable::DurableOptions;
using mergeable::FaultPlan;
using mergeable::MakeReportFrame;
using mergeable::MemStorage;
using mergeable::RecoveryInfo;
using mergeable::SimulatedTransport;
using mergeable::SpaceSaving;

constexpr uint64_t kEpoch = 7;
constexpr size_t kWorkers = 10;
constexpr double kEpsilon = 0.005;

BackoffPolicy Policy() {
  BackoffPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 100;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 1000;
  return policy;
}

std::vector<std::vector<uint64_t>> BuildShards() {
  mergeable::StreamSpec spec;
  spec.kind = mergeable::StreamKind::kZipf;
  spec.n = 1 << 17;
  spec.universe = 1 << 12;
  spec.alpha = 1.1;
  const auto stream = mergeable::GenerateStream(spec, /*seed=*/5);
  return mergeable::PartitionStream(stream, kWorkers,
                                    mergeable::PartitionPolicy::kRandom, 3);
}

void SubmitReports(SimulatedTransport& transport,
                   const std::vector<std::vector<uint64_t>>& shards) {
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
    for (uint64_t item : shards[shard]) summary.Update(item);
    transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
  }
}

std::vector<uint8_t> Encoded(const SpaceSaving& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

}  // namespace

int main() {
  const auto shards = BuildShards();
  const DurableOptions options;  // Log "wal", checkpoint every 8 reports.

  // Reference: the epoch with nothing going wrong (healthy storage).
  std::vector<uint8_t> reference;
  {
    MemStorage storage;
    SimulatedTransport transport{FaultPlan()};
    SubmitReports(transport, shards);
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    const auto result =
        coordinator.RunDurable(transport, kWorkers, &storage, options);
    reference = Encoded(*result.summary);
    std::printf("uninterrupted run:  %zu/%zu shards, n=%llu, %zu bytes\n",
                result.shards_received, result.shards_total,
                static_cast<unsigned long long>(result.summary->n()),
                reference.size());
  }

  // The same epoch on storage rigged to tear write #7 mid-append
  // (shard 6's report record) — the process dies with six reports durable,
  // a half-written record on disk, and four shards outstanding.
  CrashPoint crash;
  crash.mode = CrashMode::kTornWrite;
  crash.write_index = 7;
  crash.mutation_seed = 99;
  MemStorage storage(crash);
  {
    SimulatedTransport transport{FaultPlan()};
    SubmitReports(transport, shards);
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    const auto result =
        coordinator.RunDurable(transport, kWorkers, &storage, options);
    std::printf("crashing run:       crashed=%s after %zu shards durable\n",
                result.crashed ? "yes" : "no", result.shards_received);
  }

  // "Reboot": the crash flag clears, the durable bytes remain.
  storage.Restart();

  // A fresh coordinator reconstructs the epoch from storage alone.
  Coordinator<SpaceSaving> recovered(kEpoch, Policy());
  const RecoveryInfo info = recovered.Recover(&storage, options);
  std::printf(
      "recovery:           checkpoint=%s(seq %llu), %llu/%llu log records "
      "replayed,\n"
      "                    torn tail truncated=%s, %zu shards still "
      "pending\n",
      info.used_snapshot ? "yes" : "no",
      static_cast<unsigned long long>(info.snapshot_seq),
      static_cast<unsigned long long>(info.wal_records_applied),
      static_cast<unsigned long long>(info.wal_records_total),
      info.torn_tail_truncated ? "yes" : "no", info.pending_shards.size());

  // Resume the epoch: only the pending shards are refetched.
  SimulatedTransport transport{FaultPlan()};
  SubmitReports(transport, shards);
  const auto result = recovered.ResumeDurable(transport, kWorkers);
  const auto bytes = Encoded(*result.summary);
  std::printf("resumed run:        %zu/%zu shards, n=%llu\n",
              result.shards_received, result.shards_total,
              static_cast<unsigned long long>(result.summary->n()));
  std::printf("byte-identical to uninterrupted run: %s\n",
              bytes == reference ? "yes" : "NO (bug!)");

  // The top heavy hitters, from the recovered summary.
  std::printf("\ntop flows after recovery:\n");
  int printed = 0;
  for (const mergeable::Counter& counter :
       result.summary->FrequentItems(/*threshold=*/2000)) {
    std::printf(
        "  item %5llu  count in [%llu, %llu]\n",
        static_cast<unsigned long long>(counter.item),
        static_cast<unsigned long long>(
            result.summary->LowerEstimate(counter.item)),
        static_cast<unsigned long long>(
            result.summary->UpperEstimate(counter.item)));
    if (++printed == 5) break;
  }
  return bytes == reference ? 0 : 1;
}
