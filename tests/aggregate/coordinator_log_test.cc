// The durable coordinator's log: SEG1 frames keyed (epoch, record kind,
// index), the checkpoint codec, usable-prefix detection (torn tails, bit
// flips, unknown kinds) and newest-checkpoint-wins recovery. The
// storage-facing tests run over both backends (MemStorage model and
// FileStorage on real files); the exhaustive byte-surgery loops stay on
// the in-memory model — they exercise framing logic, not the medium.
//
// The suites keep the names they had when the log and the checkpoints
// were separate formats: WalTest/WalBackendTest cover the record log,
// SnapshotTest/SnapshotBackendTest the checkpoint records.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/bytes.h"
#include "storage_backends.h"

namespace mergeable {
namespace {

std::vector<uint8_t> Frame(uint64_t epoch, LogRecordKind kind,
                           uint64_t index,
                           const std::vector<uint8_t>& payload = {}) {
  return EncodeSegmentFrame(epoch, static_cast<uint32_t>(kind), index,
                            payload.data(), payload.size());
}

std::vector<uint8_t> Report(uint64_t shard, uint64_t epoch,
                            std::initializer_list<uint8_t> payload) {
  return Frame(epoch, LogRecordKind::kReport, shard,
               std::vector<uint8_t>(payload));
}

std::vector<uint8_t> Concat(const std::vector<std::vector<uint8_t>>& parts) {
  std::vector<uint8_t> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

std::vector<uint8_t> Encoded(const SpaceSaving& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

SpaceSaving ShardSummary(uint64_t shard) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.1);
  for (uint64_t i = 0; i < 20 + shard; ++i) summary.Update(i % (3 + shard));
  return summary;
}

// The checkpoint a durable run writes once `shards` are received: their
// left-deep ascending merge, canonical after every step.
std::vector<uint8_t> CheckpointOf(const std::vector<uint64_t>& shards,
                                  const std::vector<uint64_t>& lost = {}) {
  Checkpoint checkpoint;
  checkpoint.received_shards = shards;
  checkpoint.lost_shards = lost;
  SpaceSaving merged = ShardSummary(shards.front());
  for (size_t i = 1; i < shards.size(); ++i) {
    merged.Merge(ShardSummary(shards[i]));
    merged.Canonicalize();
  }
  checkpoint.summary_payload = Encoded(merged);
  return EncodeCheckpoint(checkpoint);
}

std::vector<uint8_t> ShardReport(uint64_t epoch, uint64_t shard) {
  return Frame(epoch, LogRecordKind::kReport, shard,
               Encoded(ShardSummary(shard)));
}

BackoffPolicy Policy() {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.deadline_ms = 1000;
  return policy;
}

SimulatedTransport TransportFor(uint64_t epoch, size_t n_shards,
                                FaultPlan plan = FaultPlan()) {
  SimulatedTransport transport{plan};
  for (size_t shard = 0; shard < n_shards; ++shard) {
    transport.Submit(shard, MakeReportFrame(ShardSummary(shard), shard, epoch));
  }
  return transport;
}

Checkpoint MakeCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.received_shards = {0, 2, 5};
  checkpoint.lost_shards = {3};
  checkpoint.summary_payload = {10, 20, 30};
  return checkpoint;
}

// ---- The record log ----

class WalBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  WalBackendTest() : factory_(GetParam()) {}
  BackendFactory factory_;
};

TEST_P(WalBackendTest, RoundTripsRecordsInOrder) {
  auto backend = factory_.Make();
  CrashingStorage& storage = *backend;
  const std::vector<std::vector<uint8_t>> frames = {
      Frame(9, LogRecordKind::kEpochBegin, 4), Report(0, 9, {1, 2, 3}),
      Report(2, 9, {}), Frame(9, LogRecordKind::kShardLost, 1)};
  for (const auto& frame : frames) ASSERT_TRUE(storage.Append("wal", frame));

  const std::vector<uint8_t> bytes = *storage.Read("wal");
  const CoordinatorLog log = ScanCoordinatorLog(bytes);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.valid_bytes, Concat(frames).size());
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records[0].level,
            static_cast<uint32_t>(LogRecordKind::kEpochBegin));
  EXPECT_EQ(log.records[0].stream, 9u);
  EXPECT_EQ(log.records[0].index, 4u);
  EXPECT_EQ(log.records[1].index, 0u);
  EXPECT_EQ(std::vector<uint8_t>(
                bytes.begin() + log.records[1].payload_offset,
                bytes.begin() + log.records[1].payload_offset +
                    log.records[1].payload_length),
            std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(log.records[2].payload_length, 0u);
  EXPECT_EQ(log.records[3].level,
            static_cast<uint32_t>(LogRecordKind::kShardLost));
  EXPECT_EQ(log.records[3].index, 1u);
}

TEST_P(WalBackendTest, MissingFileIsEmptyUntornLog) {
  auto backend = factory_.Make();
  EXPECT_FALSE(backend->Read("wal").has_value());
  const CoordinatorLog log = ScanCoordinatorLog({});
  EXPECT_TRUE(log.records.empty());
  EXPECT_EQ(log.valid_bytes, 0u);
  EXPECT_FALSE(log.torn_tail);

  Coordinator<SpaceSaving> coordinator(1, Policy());
  const RecoveryInfo info = coordinator.Recover(backend.get());
  EXPECT_EQ(info.wal_records_total, 0u);
  EXPECT_FALSE(info.torn_tail_truncated);
  EXPECT_TRUE(backend->List().empty());
}

TEST_P(WalBackendTest, WriterStopsCountingOnCrashedAppend) {
  // The second write (shard 0's report) tears: only the epoch-begin
  // record is durable.
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 1;
  point.mutation_seed = 3;
  auto backend = factory_.Make(point);
  CrashingStorage& storage = *backend;
  Coordinator<SpaceSaving> coordinator(1, Policy());
  SimulatedTransport transport = TransportFor(1, 2);
  EXPECT_TRUE(coordinator.RunDurable(transport, 2, &storage).crashed);

  storage.Restart();
  const CoordinatorLog log = ScanCoordinatorLog(*storage.Read("wal"));
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].level,
            static_cast<uint32_t>(LogRecordKind::kEpochBegin));
  EXPECT_EQ(log.records[0].index, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, WalBackendTest,
                         ::testing::Values(BackendKind::kMem,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(WalTest, TornFinalRecordKeepsValidPrefix) {
  const auto first = Report(0, 1, {1, 2});
  const auto full = Concat({first, Report(1, 1, {3, 4})});

  // Tear the second record at every possible split point: the first
  // record must always survive, and the tail must always be flagged.
  for (size_t cut = first.size() + 1; cut < full.size(); ++cut) {
    const CoordinatorLog log = ScanCoordinatorLog(
        std::vector<uint8_t>(full.begin(), full.begin() + cut));
    ASSERT_EQ(log.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(log.records[0].index, 0u);
    EXPECT_EQ(log.valid_bytes, first.size());
    EXPECT_TRUE(log.torn_tail);
  }
}

TEST(WalTest, BitFlipAnywhereInFinalRecordIsRejected) {
  const auto first = Report(0, 1, {1, 2});
  const auto full = Concat({first, Report(1, 1, {3, 4, 5, 6})});

  for (size_t byte = first.size(); byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = full;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const CoordinatorLog log = ScanCoordinatorLog(flipped);
      // The flip must not smuggle a different record through: a flip in
      // the length field that frames a shorter record still fails the
      // checksum, which covers the whole body.
      ASSERT_EQ(log.records.size(), 1u) << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(log.torn_tail);
      EXPECT_EQ(log.valid_bytes, first.size());
    }
  }
}

TEST(WalTest, CorruptRecordEndsThePrefixEvenWithIntactRecordsBehind) {
  // Unlike the durable store's scan, the coordinator never skips a
  // corrupt record: replaying the intact ones behind it could fold
  // reports out of order, so the prefix (and the truncate) ends there.
  const auto first = Report(0, 1, {1, 2});
  auto middle = Report(1, 1, {3, 4});
  middle[middle.size() - 1] ^= 0x01;  // The checksum no longer matches.
  const auto bytes = Concat({first, middle, Report(2, 1, {5, 6})});
  const CoordinatorLog log = ScanCoordinatorLog(bytes);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.valid_bytes, first.size());
  EXPECT_TRUE(log.torn_tail);
}

TEST(WalTest, UnknownRecordTypeStopsReplay) {
  // A record with an unknown kind frames and checksums correctly, so
  // only the kind check can reject it; it ends the usable prefix even
  // with intact records behind it. Level 0 (a durable-store leaf) is
  // unknown to the coordinator too.
  for (uint32_t level : {0u, 5u, 99u}) {
    const std::vector<uint8_t> bogus = {7};
    const auto bytes = Concat(
        {EncodeSegmentFrame(2, level, 3, bogus.data(), bogus.size()),
         Report(0, 2, {1})});
    const CoordinatorLog log = ScanCoordinatorLog(bytes);
    EXPECT_TRUE(log.records.empty()) << "level=" << level;
    EXPECT_TRUE(log.torn_tail);
    EXPECT_EQ(log.valid_bytes, 0u);
  }
}

TEST(WalTest, ChecksumDiffersAcrossRecords) {
  EXPECT_NE(Report(0, 1, {1}), Report(1, 1, {1}));
}

// ---- Checkpoint records ----

TEST(SnapshotTest, RoundTrips) {
  const Checkpoint original = MakeCheckpoint();
  const auto bytes = EncodeCheckpoint(original);
  const auto decoded = DecodeCheckpoint(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->received_shards, original.received_shards);
  EXPECT_EQ(decoded->lost_shards, original.lost_shards);
  EXPECT_EQ(decoded->summary_payload, original.summary_payload);
}

TEST(SnapshotTest, RejectsEveryTruncation) {
  const auto bytes = EncodeCheckpoint(MakeCheckpoint());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeCheckpoint(bytes.data(), len).has_value())
        << "len=" << len;
  }
}

TEST(SnapshotTest, RejectsEveryBitFlip) {
  // The SEG1 checksum covers the whole checkpoint body: no flipped bit
  // of the frame yields a record recovery would restore.
  const auto frame = Frame(1, LogRecordKind::kCheckpoint, 1,
                           EncodeCheckpoint(MakeCheckpoint()));
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = frame;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const CoordinatorLog log = ScanCoordinatorLog(flipped);
      EXPECT_TRUE(log.records.empty()) << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(log.torn_tail);
    }
  }
}

TEST(SnapshotTest, RejectsTrailingBytes) {
  auto bytes = EncodeCheckpoint(MakeCheckpoint());
  bytes.push_back(0);
  EXPECT_FALSE(DecodeCheckpoint(bytes.data(), bytes.size()).has_value());
}

TEST(SnapshotTest, RejectsUnsortedShardSets) {
  Checkpoint checkpoint = MakeCheckpoint();
  checkpoint.received_shards = {5, 2};  // Not ascending.
  auto bytes = EncodeCheckpoint(checkpoint);
  EXPECT_FALSE(DecodeCheckpoint(bytes.data(), bytes.size()).has_value());
  checkpoint = MakeCheckpoint();
  checkpoint.lost_shards = {3, 3};  // A duplicate.
  bytes = EncodeCheckpoint(checkpoint);
  EXPECT_FALSE(DecodeCheckpoint(bytes.data(), bytes.size()).has_value());
}

class SnapshotBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  SnapshotBackendTest() : factory_(GetParam()) {}

  static RecoveryInfo Recover(Storage* storage, DurableOptions options = {}) {
    Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
    return coordinator.Recover(storage, options);
  }

  static constexpr uint64_t kEpoch = 4;
  BackendFactory factory_;
};

TEST_P(SnapshotBackendTest, EmptyStorageScanFindsNothing) {
  auto storage = factory_.Make();
  const RecoveryInfo info = Recover(storage.get());
  EXPECT_FALSE(info.recovered);
  EXPECT_FALSE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_seq, 0u);
}

TEST_P(SnapshotBackendTest, NewestValidSnapshotWins) {
  auto storage = factory_.Make();
  for (const auto& frame :
       {Frame(kEpoch, LogRecordKind::kEpochBegin, 4),
        ShardReport(kEpoch, 0), ShardReport(kEpoch, 1),
        Frame(kEpoch, LogRecordKind::kCheckpoint, 1, CheckpointOf({0, 1})),
        ShardReport(kEpoch, 2),
        Frame(kEpoch, LogRecordKind::kCheckpoint, 2,
              CheckpointOf({0, 1, 2}))}) {
    ASSERT_TRUE(storage->Append("wal", frame));
  }
  const RecoveryInfo info = Recover(storage.get());
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_seq, 2u);
  EXPECT_EQ(info.wal_records_total, 6u);
  EXPECT_EQ(info.wal_records_applied, 0u);  // Nothing follows it.
  EXPECT_EQ(info.pending_shards, std::vector<uint64_t>({3}));
}

TEST_P(SnapshotBackendTest, FallsBackPastTornNewestFile) {
  auto storage = factory_.Make();
  for (const auto& frame :
       {Frame(kEpoch, LogRecordKind::kEpochBegin, 4),
        ShardReport(kEpoch, 0), ShardReport(kEpoch, 1),
        Frame(kEpoch, LogRecordKind::kCheckpoint, 1, CheckpointOf({0, 1})),
        ShardReport(kEpoch, 2)}) {
    ASSERT_TRUE(storage->Append("wal", frame));
  }
  const uint64_t intact = storage->Read("wal")->size();
  // Checkpoint 2 is torn: only half its bytes reached storage.
  const auto full = Frame(kEpoch, LogRecordKind::kCheckpoint, 2,
                          CheckpointOf({0, 1, 2}));
  ASSERT_TRUE(storage->Append(
      "wal", std::vector<uint8_t>(full.begin(), full.begin() + full.size() / 2)));

  DurableOptions options;
  options.checkpoint_every = 2;
  Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
  const RecoveryInfo info = coordinator.Recover(storage.get(), options);
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_seq, 1u);
  EXPECT_EQ(info.wal_records_applied, 1u);  // Shard 2's report.
  EXPECT_TRUE(info.torn_tail_truncated);
  EXPECT_EQ(storage->Read("wal")->size(), intact);

  // The next checkpoint takes the torn one's sequence and lands on a
  // clean boundary: the finished log holds checkpoints 1 and 2 only.
  SimulatedTransport transport = TransportFor(kEpoch, 4);
  ASSERT_FALSE(coordinator.ResumeDurable(transport, 4).crashed);
  const std::vector<uint8_t> bytes = *storage->Read("wal");
  const CoordinatorLog log = ScanCoordinatorLog(bytes);
  EXPECT_FALSE(log.torn_tail);
  std::vector<uint64_t> sequences;
  for (const SegmentRecordView& record : log.records) {
    if (record.level == static_cast<uint32_t>(LogRecordKind::kCheckpoint)) {
      sequences.push_back(record.index);
    }
  }
  EXPECT_EQ(sequences, std::vector<uint64_t>({1, 2}));
}

TEST_P(SnapshotBackendTest, IgnoresUnrelatedFiles) {
  auto storage = factory_.Make();
  // A leftover file (say, an old-format checkpoint) is never read or
  // touched: recovery reads only the log.
  ASSERT_TRUE(storage->Rewrite("snap.000000000003", {1, 2, 3}));
  for (const auto& frame :
       {Frame(kEpoch, LogRecordKind::kEpochBegin, 2),
        ShardReport(kEpoch, 0), ShardReport(kEpoch, 1),
        Frame(kEpoch, LogRecordKind::kCheckpoint, 1, CheckpointOf({0, 1}))}) {
    ASSERT_TRUE(storage->Append("wal", frame));
  }
  const RecoveryInfo info = Recover(storage.get());
  EXPECT_TRUE(info.used_snapshot);
  EXPECT_EQ(info.snapshot_seq, 1u);
  EXPECT_EQ(storage->List(),
            std::vector<std::string>({"snap.000000000003", "wal"}));
  EXPECT_EQ(*storage->Read("snap.000000000003"),
            std::vector<uint8_t>({1, 2, 3}));
}

INSTANTIATE_TEST_SUITE_P(Backends, SnapshotBackendTest,
                         ::testing::Values(BackendKind::kMem,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

// ---- The whole log of one durable run ----

// Pins the log layout: a durable run writes exactly these frames, in
// this order, one Append each, to the one file it owns. Shard 2 is dead
// and exhausts its retries, so the run crosses every record kind.
TEST(CoordinatorLogTest, DurableRunWritesTheExpectedFramesInOrder) {
  constexpr uint64_t kEpoch = 5;
  constexpr size_t kShards = 5;
  FaultPlan plan;
  plan.KillShard(2);
  SimulatedTransport transport = TransportFor(kEpoch, kShards, plan);
  MemStorage backend;
  CrashingStorage storage(&backend);
  DurableOptions options;
  options.wal_file = "coordinator.log";
  options.checkpoint_every = 2;
  Coordinator<SpaceSaving> coordinator(kEpoch, Policy());
  const auto result =
      coordinator.RunDurable(transport, kShards, &storage, options);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, 4u);
  EXPECT_EQ(result.outcomes[2].status, ShardOutcome::Status::kLost);
  EXPECT_EQ(result.outcomes[2].attempts, Policy().max_attempts);

  const std::vector<std::vector<uint8_t>> expected = {
      Frame(kEpoch, LogRecordKind::kEpochBegin, kShards),
      ShardReport(kEpoch, 0),
      ShardReport(kEpoch, 1),
      Frame(kEpoch, LogRecordKind::kCheckpoint, 1, CheckpointOf({0, 1})),
      Frame(kEpoch, LogRecordKind::kShardLost, 2),
      ShardReport(kEpoch, 3),
      ShardReport(kEpoch, 4),
      Frame(kEpoch, LogRecordKind::kCheckpoint, 2,
            CheckpointOf({0, 1, 3, 4}, {2}))};
  EXPECT_EQ(*storage.Read("coordinator.log"), Concat(expected));
  EXPECT_EQ(storage.List(), std::vector<std::string>({"coordinator.log"}));
  EXPECT_EQ(storage.stats().appends, expected.size());
  EXPECT_EQ(storage.stats().rewrites, 0u);
  // The same count as when checkpoints were separate files: one write
  // per record, so the crash matrix enumerates the same indices.
  EXPECT_EQ(storage.writes_attempted(), 8u);
}

}  // namespace
}  // namespace mergeable
