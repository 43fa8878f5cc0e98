// Crash-recovery tests for the durable coordinator — the acceptance
// matrix: a crash is injected at EVERY log write boundary, in
// every crash mode (process dies before the write, mid-write leaving a
// torn record, after a bit-flipped "bad sector" write, and just after a
// fully durable write whose acknowledgement is lost), across three
// summary types. In every single case the recovered epoch must produce
// a summary byte-identical to an uninterrupted durable run, with zero
// shards double-counted — the mergeability guarantee plus (shard,
// epoch) dedup is exactly what makes replay-from-checkpoint exact.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/segment.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"
#include "mergeable/util/bytes.h"
#include "storage_backends.h"

namespace mergeable {
namespace {

constexpr uint64_t kEpoch = 7;
constexpr size_t kShards = 6;
constexpr uint64_t kDeadShard = 3;

std::vector<std::vector<uint64_t>> MatrixShards() {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 1 << 13;
  spec.universe = 1024;
  spec.alpha = 1.1;
  const auto stream = GenerateStream(spec, 19);
  return PartitionStream(stream, kShards, PartitionPolicy::kRandom, 5);
}

BackoffPolicy MatrixPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 5;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 20;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 500;
  return policy;
}

template <typename S>
std::vector<uint8_t> EncodedBytes(const S& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

std::vector<uint8_t> Frame(uint64_t epoch, LogRecordKind kind,
                           uint64_t index,
                           const std::vector<uint8_t>& payload = {}) {
  return EncodeSegmentFrame(epoch, static_cast<uint32_t>(kind), index,
                            payload.data(), payload.size());
}

// Checkpoint records in the usable prefix of the log "wal".
size_t CheckpointRecords(const Storage& storage) {
  size_t count = 0;
  for (const SegmentRecordView& record :
       ScanCoordinatorLog(storage.Read("wal").value_or(
                              std::vector<uint8_t>()))
           .records) {
    if (record.level == static_cast<uint32_t>(LogRecordKind::kCheckpoint)) {
      ++count;
    }
  }
  return count;
}

// Builds one report frame per shard with `worker` (shard -> summary) and
// plays the whole crash matrix for summary type S over `factory`'s
// backend. `kDeadShard` never answers, so the matrix also crosses
// kShardLost records.
template <typename S, typename WorkerFn>
void RunCrashMatrix(const char* type_name, BackendFactory& factory,
                    WorkerFn worker) {
  const auto shards = MatrixShards();
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(kShards);
  uint64_t live_mass = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    frames.push_back(
        MakeReportFrame(worker(shard, shards[shard]), shard, kEpoch));
    if (shard != kDeadShard) live_mass += shards[shard].size();
  }
  const auto make_transport = [&frames]() {
    FaultPlan plan;
    plan.KillShard(kDeadShard);
    SimulatedTransport transport{plan};
    for (size_t shard = 0; shard < kShards; ++shard) {
      transport.Submit(shard, frames[shard]);
    }
    return transport;
  };
  DurableOptions options;
  options.checkpoint_every = 2;

  // Reference: an uninterrupted durable run.
  auto reference_storage = factory.Make();
  Coordinator<S> reference(kEpoch, MatrixPolicy());
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, reference_storage.get(), options);
  ASSERT_FALSE(reference_result.crashed);
  ASSERT_TRUE(reference_result.summary.has_value());
  ASSERT_EQ(reference_result.shards_received, kShards - 1);
  ASSERT_EQ(reference_result.summary->n(), live_mass);
  const std::vector<uint8_t> reference_bytes =
      EncodedBytes(*reference_result.summary);
  const uint64_t total_writes = reference_storage->writes_attempted();
  // Epoch begin + a record per shard + one checkpoint per two received.
  ASSERT_GE(total_writes, 1 + kShards);

  for (const CrashPoint& point : CrashMatrix(total_writes, /*seed=*/99)) {
    SCOPED_TRACE(std::string(type_name) + ": crash " + ToString(point.mode) +
                 " at write " + std::to_string(point.write_index));

    auto storage = factory.Make(point);
    Coordinator<S> first(kEpoch, MatrixPolicy());
    SimulatedTransport crash_transport = make_transport();
    const auto crashed =
        first.RunDurable(crash_transport, kShards, storage.get(), options);
    ASSERT_TRUE(crashed.crashed);
    ASSERT_TRUE(storage->crashed());

    storage->Restart();
    Coordinator<S> second(kEpoch, MatrixPolicy());
    const RecoveryInfo info = second.Recover(storage.get(), options);
    // Dedup by (shard, epoch) makes replay exactly-once: nothing in the
    // durable state may ever merge twice.
    EXPECT_EQ(info.duplicates_ignored, 0u);
    EXPECT_EQ(info.invalid_payloads, 0u);

    SimulatedTransport resume_transport = make_transport();
    const auto result = second.ResumeDurable(resume_transport, kShards);
    ASSERT_FALSE(result.crashed);
    ASSERT_TRUE(result.summary.has_value());
    EXPECT_EQ(result.shards_total, kShards);
    EXPECT_EQ(result.shards_received, kShards - 1);
    // Zero duplicate-counted shards: replaying a shard twice would
    // inflate n past the live mass.
    EXPECT_EQ(result.summary->n(), live_mass);
    // The headline property: byte-identical to the uninterrupted run.
    EXPECT_EQ(EncodedBytes(*result.summary), reference_bytes);
  }
}

class CrashMatrixBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  CrashMatrixBackendTest() : factory_(GetParam()) {}
  BackendFactory factory_;
};

TEST_P(CrashMatrixBackendTest, SpaceSavingSurvivesEveryCrashPoint) {
  RunCrashMatrix<SpaceSaving>(
      "SpaceSaving", factory_,
      [](size_t, const std::vector<uint64_t>& items) {
        SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
        for (uint64_t item : items) summary.Update(item);
        return summary;
      });
}

TEST_P(CrashMatrixBackendTest, MergeableQuantilesSurvivesEveryCrashPoint) {
  RunCrashMatrix<MergeableQuantiles>(
      "MergeableQuantiles", factory_,
      [](size_t shard, const std::vector<uint64_t>& items) {
        MergeableQuantiles summary =
            MergeableQuantiles::ForEpsilon(0.05, 100 + shard);
        for (uint64_t item : items) {
          summary.Update(static_cast<double>(item));
        }
        return summary;
      });
}

TEST_P(CrashMatrixBackendTest, CountMinSurvivesEveryCrashPoint) {
  RunCrashMatrix<CountMinSketch>(
      "CountMin", factory_, [](size_t, const std::vector<uint64_t>& items) {
        CountMinSketch summary =
            CountMinSketch::ForEpsilonDelta(0.01, 0.01, /*seed=*/42);
        for (uint64_t item : items) summary.Update(item);
        return summary;
      });
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashMatrixBackendTest,
                         ::testing::Values(BackendKind::kMem,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

// Transient storage faults (EIO/ENOSPC windows) must ride out on the
// coordinator's bounded append retry without perturbing the durable
// byte stream: the result is byte-identical to a fault-free run, and
// the retry counters record exactly what happened.
TEST(RecoveryTest, TransientAppendFaultsRideOutOnRetry) {
  const auto shards = MatrixShards();
  const auto make_transport = [&shards]() {
    SimulatedTransport transport{FaultPlan()};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    return transport;
  };

  MemStorage reference_storage;
  Coordinator<SpaceSaving> reference(kEpoch, MatrixPolicy());
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, &reference_storage, DurableOptions{});
  ASSERT_FALSE(reference_result.crashed);
  EXPECT_EQ(reference.wal_append_retries(), 0u);

  MemStorage storage;
  storage.FailNextWrites(2);  // First append fails twice, then lands.
  DurableOptions options;
  options.append_retry.max_attempts = 3;
  options.append_retry.initial_backoff_ms = 0;
  Coordinator<SpaceSaving> faulted(kEpoch, MatrixPolicy());
  SimulatedTransport transport = make_transport();
  const auto result =
      faulted.RunDurable(transport, kShards, &storage, options);
  ASSERT_FALSE(result.crashed);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(faulted.wal_append_retries(), 2u);
  EXPECT_EQ(storage.stats().transient_failures, 2u);
  // Identical durable bytes and identical answer: retries are invisible
  // to the crash matrix and to every reader.
  EXPECT_EQ(EncodedBytes(*result.summary),
            EncodedBytes(*reference_result.summary));
  EXPECT_EQ(*storage.Read("wal"), *reference_storage.Read("wal"));
  EXPECT_EQ(storage.writes_attempted(),
            reference_storage.writes_attempted());
}

// When the fault window outlasts the retry budget, the run reports a
// crash (the caller's recovery machinery takes over) instead of
// silently losing the record.
TEST(RecoveryTest, ExhaustedAppendRetriesFailTheRun) {
  const auto shards = MatrixShards();
  MemStorage storage;
  storage.FailNextWrites(100);  // Outlasts any bounded retry.
  DurableOptions options;
  options.append_retry.max_attempts = 3;
  options.append_retry.initial_backoff_ms = 0;
  Coordinator<SpaceSaving> coordinator(kEpoch, MatrixPolicy());
  SimulatedTransport transport{FaultPlan()};
  for (size_t shard = 0; shard < kShards; ++shard) {
    SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
    for (uint64_t item : shards[shard]) summary.Update(item);
    transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
  }
  const auto result =
      coordinator.RunDurable(transport, kShards, &storage, options);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(coordinator.wal_append_retries(), 2u);
  EXPECT_EQ(storage.writes_attempted(), 0u);  // Nothing ever landed.
}

// A crash that predates the first durable write leaves nothing behind;
// recovery must report that and the resumed run is simply a fresh one.
TEST(RecoveryTest, EmptyStorageRecoversToFreshEpoch) {
  MemStorage storage;
  Coordinator<SpaceSaving> coordinator(kEpoch, MatrixPolicy());
  const RecoveryInfo info = coordinator.Recover(&storage);
  EXPECT_FALSE(info.recovered);
  EXPECT_TRUE(info.pending_shards.empty());

  SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
  summary.Update(1);
  SimulatedTransport transport{FaultPlan()};
  transport.Submit(0, MakeReportFrame(summary, 0, kEpoch));
  const auto result = coordinator.ResumeDurable(transport, 1);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, 1u);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), 1u);
}

// checkpoint_every = 0 disables checkpoints entirely: recovery replays
// the whole log and must land in the identical state.
TEST(RecoveryTest, LogOnlyModeRecoversWithoutSnapshots) {
  const auto shards = MatrixShards();
  DurableOptions options;
  options.checkpoint_every = 0;

  const auto make_transport = [&shards]() {
    SimulatedTransport transport{FaultPlan()};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    return transport;
  };

  MemStorage reference_storage;
  Coordinator<SpaceSaving> reference(kEpoch, MatrixPolicy());
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, &reference_storage, options);
  ASSERT_FALSE(reference_result.crashed);
  EXPECT_EQ(CheckpointRecords(reference_storage), 0u);

  // Crash at the very last write; everything must come back from the log.
  CrashPoint point;
  point.mode = CrashMode::kAfterWrite;
  point.write_index = reference_storage.writes_attempted() - 1;
  MemStorage storage(point);
  Coordinator<SpaceSaving> first(kEpoch, MatrixPolicy());
  SimulatedTransport crash_transport = make_transport();
  ASSERT_TRUE(
      first.RunDurable(crash_transport, kShards, &storage, options).crashed);

  storage.Restart();
  Coordinator<SpaceSaving> second(kEpoch, MatrixPolicy());
  const RecoveryInfo info = second.Recover(&storage, options);
  EXPECT_TRUE(info.recovered);
  EXPECT_FALSE(info.used_snapshot);
  EXPECT_EQ(info.n_shards, kShards);
  SimulatedTransport resume_transport = make_transport();
  const auto result = second.ResumeDurable(resume_transport, kShards);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(EncodedBytes(*result.summary),
            EncodedBytes(*reference_result.summary));
}

// A record appended twice (an ack lost in a crash, then a defensive
// re-append by some future writer) must merge exactly once on replay.
TEST(RecoveryTest, ReplayDeduplicatesDoubleDurableRecords) {
  MemStorage storage;

  SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
  summary.Update(1);
  summary.Update(1);
  summary.Update(2);

  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch, LogRecordKind::kEpochBegin, /*n_shards=*/1)));
  const auto report =
      Frame(kEpoch, LogRecordKind::kReport, 0, EncodedBytes(summary));
  ASSERT_TRUE(storage.Append("wal", report));
  ASSERT_TRUE(storage.Append("wal", report));  // The duplicate.

  Coordinator<SpaceSaving> coordinator(kEpoch, MatrixPolicy());
  const RecoveryInfo info = coordinator.Recover(&storage);
  EXPECT_TRUE(info.recovered);
  EXPECT_EQ(info.duplicates_ignored, 1u);
  EXPECT_TRUE(info.pending_shards.empty());

  SimulatedTransport transport{FaultPlan()};
  const auto result = coordinator.ResumeDurable(transport, 1);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), 3u);  // Not 6: merged exactly once.
}

// Records from another epoch sharing the storage must not leak into
// this epoch's recovery (the dedup key is (shard, epoch), not shard).
TEST(RecoveryTest, ReplayIgnoresOtherEpochs) {
  MemStorage storage;

  SpaceSaving stale = SpaceSaving::ForEpsilon(0.02);
  stale.Update(9);
  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch - 1, LogRecordKind::kEpochBegin, 1)));
  ASSERT_TRUE(storage.Append("wal", Frame(kEpoch - 1, LogRecordKind::kReport,
                                          0, EncodedBytes(stale))));

  Coordinator<SpaceSaving> coordinator(kEpoch, MatrixPolicy());
  const RecoveryInfo info = coordinator.Recover(&storage);
  EXPECT_FALSE(info.recovered);
  EXPECT_EQ(info.wal_records_applied, 0u);
}

// A logged report of a shape the fold cannot merge (a writer bug: the
// log holds only reports the fold accepted) is skipped and counted like
// an undecodable one, so recovery never aborts on it. The shard stays
// pending; refetched, the same report is given up as incompatible.
TEST(RecoveryTest, ReplaySkipsReportsOfAnotherShape) {
  CountMinSketch good(4, 64, /*seed=*/9);
  CountMinSketch narrow(4, 32, /*seed=*/9);
  for (uint64_t item = 0; item < 40; ++item) {
    good.Update(item % 7);
    narrow.Update(item % 5);
  }
  MemStorage storage;
  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch, LogRecordKind::kEpochBegin, /*n_shards=*/3)));
  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch, LogRecordKind::kReport, 0, EncodedBytes(good))));
  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch, LogRecordKind::kReport, 1, EncodedBytes(narrow))));
  ASSERT_TRUE(storage.Append(
      "wal", Frame(kEpoch, LogRecordKind::kReport, 2, EncodedBytes(good))));

  Coordinator<CountMinSketch> coordinator(kEpoch, MatrixPolicy());
  const RecoveryInfo info = coordinator.Recover(&storage);
  EXPECT_TRUE(info.recovered);
  EXPECT_EQ(info.invalid_payloads, 1u);
  EXPECT_EQ(info.pending_shards, std::vector<uint64_t>{1});

  SimulatedTransport transport{FaultPlan()};
  transport.Submit(1, MakeReportFrame(narrow, 1, kEpoch));
  const auto result = coordinator.ResumeDurable(transport, 3);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, 2u);
  EXPECT_EQ(result.incompatible_rejected, 1u);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), 2 * good.n());
}

// Stale checkpoint + newer log: the checkpoint covers a prefix and the
// log tail past it still replays — state must equal log-only recovery.
TEST(RecoveryTest, StaleSnapshotReplaysNewerLogTail) {
  const auto shards = MatrixShards();
  DurableOptions options;
  options.checkpoint_every = 4;  // One checkpoint at 4 received reports.

  const auto make_transport = [&shards]() {
    SimulatedTransport transport{FaultPlan()};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    return transport;
  };

  MemStorage storage;
  Coordinator<SpaceSaving> first(kEpoch, MatrixPolicy());
  SimulatedTransport transport = make_transport();
  const auto uninterrupted =
      first.RunDurable(transport, kShards, &storage, options);
  ASSERT_FALSE(uninterrupted.crashed);
  ASSERT_EQ(CheckpointRecords(storage), 1u);  // At 4 of 6 reports.

  // Recover with the full log + the mid-epoch checkpoint: the checkpoint
  // is stale relative to the log and the tail replay must close the gap.
  Coordinator<SpaceSaving> second(kEpoch, MatrixPolicy());
  const RecoveryInfo info = second.Recover(&storage, options);
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_GT(info.wal_records_applied, 0u);
  EXPECT_TRUE(info.pending_shards.empty());

  SimulatedTransport resume_transport = make_transport();
  const auto result = second.ResumeDurable(resume_transport, kShards);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(EncodedBytes(*result.summary),
            EncodedBytes(*uninterrupted.summary));
}

// A storage whose Truncate can be made to fail.
class NoTruncateStorage : public MemStorage {
 public:
  using MemStorage::MemStorage;
  bool Truncate(const std::string& file, uint64_t size) override {
    return truncate_works && MemStorage::Truncate(file, size);
  }
  bool truncate_works = false;
};

// A torn tail Recover() could not cut must not be reported as cut, and
// ResumeDurable() must not append behind it: the next Recover() would
// stop at the garbage and never see those records. Once the truncate
// works, recovery finishes the epoch with the uninterrupted run's bytes.
TEST(RecoveryTest, UncutTornTailBlocksResume) {
  const auto shards = MatrixShards();
  const auto make_transport = [&shards]() {
    SimulatedTransport transport{FaultPlan()};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    return transport;
  };
  DurableOptions options;
  options.checkpoint_every = 2;

  MemStorage reference_storage;
  Coordinator<SpaceSaving> reference(kEpoch, MatrixPolicy());
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, &reference_storage, options);
  ASSERT_FALSE(reference_result.crashed);

  // Shard 2's report persists bit-flipped: a full-length corrupt tail.
  CrashPoint point;
  point.mode = CrashMode::kCorruptWrite;
  point.write_index = 4;  // Epoch begin, 0, 1, checkpoint, then 2.
  point.mutation_seed = 11;
  NoTruncateStorage storage(point);
  Coordinator<SpaceSaving> first(kEpoch, MatrixPolicy());
  SimulatedTransport crash_transport = make_transport();
  ASSERT_TRUE(
      first.RunDurable(crash_transport, kShards, &storage, options).crashed);
  storage.Restart();
  const std::vector<uint8_t> crashed_log = *storage.Read("wal");

  Coordinator<SpaceSaving> second(kEpoch, MatrixPolicy());
  const RecoveryInfo info = second.Recover(&storage, options);
  EXPECT_TRUE(info.recovered);
  EXPECT_FALSE(info.torn_tail_truncated);
  SimulatedTransport blocked_transport = make_transport();
  const auto blocked = second.ResumeDurable(blocked_transport, kShards);
  EXPECT_TRUE(blocked.crashed);
  EXPECT_FALSE(blocked.summary.has_value());
  EXPECT_EQ(*storage.Read("wal"), crashed_log);

  storage.truncate_works = true;
  Coordinator<SpaceSaving> third(kEpoch, MatrixPolicy());
  EXPECT_TRUE(third.Recover(&storage, options).torn_tail_truncated);
  SimulatedTransport resume_transport = make_transport();
  const auto result = third.ResumeDurable(resume_transport, kShards);
  ASSERT_FALSE(result.crashed);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(EncodedBytes(*result.summary),
            EncodedBytes(*reference_result.summary));
  EXPECT_EQ(*storage.Read("wal"), *reference_storage.Read("wal"));
}

// Recovery under a faulty network too: the refetched shards go through
// the usual retry/dedup machinery and the mass still adds up exactly.
TEST(RecoveryTest, ResumeSurvivesTransientTransportFaults) {
  const auto shards = MatrixShards();
  uint64_t total_mass = 0;
  for (const auto& shard : shards) total_mass += shard.size();

  FaultSpec spec;
  spec.drop_probability = 0.3;
  spec.bit_flip_probability = 0.2;
  spec.duplicate_probability = 0.2;
  const auto make_transport = [&shards, &spec](uint64_t seed) {
    SimulatedTransport transport{FaultPlan(spec, seed)};
    for (size_t shard = 0; shard < kShards; ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.02);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
    }
    return transport;
  };
  BackoffPolicy policy = MatrixPolicy();
  policy.max_attempts = 8;  // Enough retries to beat 50% fault odds.

  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 4;
  point.mutation_seed = 123;
  MemStorage storage(point);
  Coordinator<SpaceSaving> first(kEpoch, policy);
  SimulatedTransport crash_transport = make_transport(31);
  ASSERT_TRUE(first.RunDurable(crash_transport, kShards, &storage).crashed);

  storage.Restart();
  Coordinator<SpaceSaving> second(kEpoch, policy);
  const RecoveryInfo info = second.Recover(&storage);
  EXPECT_TRUE(info.recovered);
  SimulatedTransport resume_transport = make_transport(32);
  const auto result = second.ResumeDurable(resume_transport, kShards);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, kShards);
  ASSERT_TRUE(result.summary.has_value());
  // Dedup across replayed and refetched shards: exact mass, no double
  // counting even with duplicated frames on the wire.
  EXPECT_EQ(result.summary->n(), total_mass);
}

}  // namespace
}  // namespace mergeable
