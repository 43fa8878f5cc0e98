// Store persistence: Open() recovery after restarts, rebuild of rotted
// internal nodes, quarantine of a leaf that rots after Open(), and
// ingestion of coordinator results, recovered ones included.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

SpaceSaving MakeEpochSummary(uint64_t epoch) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.1);
  Rng rng(400 + epoch);
  for (int i = 0; i < 80; ++i) summary.Update(rng.UniformInt(30));
  return summary;
}

EpochMeta MetaFor(uint64_t epoch, const SpaceSaving& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  meta.shards_total = 2;
  meta.shards_received = 2;
  return meta;
}

// Seals `epochs` summaries of stream 1 into a fresh store over
// `storage`; returns how many seals succeeded before the first failure.
uint64_t SealUpTo(Storage* storage, uint64_t epochs) {
  DurableStore<SpaceSaving> store(storage);
  for (uint64_t e = 0; e < epochs; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    if (!store.Seal(1, summary, MetaFor(e, summary))) return e;
  }
  return epochs;
}

// Flips one byte in the middle of stream 1's record (level, index) in
// the first segment file. False when the record is absent.
bool RotRecord(Storage& storage, uint32_t level, uint64_t index) {
  const std::string file = "durable/seg/00000000";
  std::vector<uint8_t> bytes = *storage.Read(file);
  for (const SegmentEntry& entry : ScanSegment(bytes).entries) {
    if (entry.record.stream == 1 && entry.record.level == level &&
        entry.record.index == index) {
      bytes[entry.offset + entry.length / 2] ^= 0x10;
      return storage.Rewrite(file, bytes);
    }
  }
  return false;
}

TEST(StoreRecoveryTest, OpenRestoresStreamsAndAnswersIdentically) {
  MemStorage storage;
  constexpr uint64_t kEpochs = 13;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < kEpochs; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(7, summary, MetaFor(100 + e, summary)));
    }
    for (uint64_t lo = 0; lo < kEpochs; ++lo) {
      const auto outcome =
          store.QueryRangePayload(7, 100 + lo, 100 + kEpochs - 1);
      ASSERT_TRUE(outcome.has_value());
      reference.push_back(*outcome->payload);
    }
  }

  // "Restart": a fresh store over the same storage.
  DurableStore<SpaceSaving> reopened(&storage);
  ASSERT_EQ(reopened.Open().streams, 1u);
  ASSERT_TRUE(reopened.HasStream(7));
  EXPECT_EQ(reopened.EpochCount(7), kEpochs);
  EXPECT_EQ(reopened.BaseEpoch(7), 100u);
  ASSERT_EQ(reopened.Metas(7).size(), kEpochs);
  for (uint64_t lo = 0; lo < kEpochs; ++lo) {
    const auto outcome =
        reopened.QueryRangePayload(7, 100 + lo, 100 + kEpochs - 1);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(*outcome->payload, reference[lo]) << "suffix from " << lo;
  }
}

TEST(StoreRecoveryTest, OpenRecoversMultipleStreams) {
  MemStorage storage;
  {
    DurableStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < 5; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
      ASSERT_TRUE(store.Seal(2, summary, MetaFor(50 + e, summary)));
    }
  }
  DurableStore<SpaceSaving> reopened(&storage);
  EXPECT_EQ(reopened.Open().streams, 2u);
  EXPECT_EQ(reopened.EpochCount(1), 5u);
  EXPECT_EQ(reopened.EpochCount(2), 5u);
  EXPECT_EQ(reopened.BaseEpoch(2), 50u);
}

// A rotted internal node is rebuilt from its children,
// byte-identically, and re-appended for the next restart.
TEST(StoreRecoveryTest, TornInternalNodeIsRebuiltByteIdentically) {
  MemStorage storage;
  constexpr uint64_t kEpochs = 8;
  std::vector<uint8_t> healthy_answer;
  std::vector<uint8_t> healthy_pair;  // [2, 3]: node (1, 1) itself.
  {
    DurableStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < kEpochs; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
    }
    healthy_answer = *store.QueryRangePayload(1, 0, kEpochs - 1)->payload;
    healthy_pair = *store.QueryRangePayload(1, 2, 3)->payload;
  }

  // Rot the level-3 root node and one level-1 node in the log.
  ASSERT_TRUE(RotRecord(storage, 3, 0));
  ASSERT_TRUE(RotRecord(storage, 1, 1));

  DurableStore<SpaceSaving> reopened(&storage);
  const OpenReport report = reopened.Open();
  ASSERT_EQ(report.streams, 1u);
  EXPECT_EQ(report.corrupt_records, 2u);
  // Open()'s pre-warm of the full range rebuilt the root from its
  // intact children.
  EXPECT_EQ(reopened.stats().nodes_built, 1u);
  const auto outcome = reopened.QueryRangePayload(1, 0, kEpochs - 1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome->payload, healthy_answer);
  const auto pair = reopened.QueryRangePayload(1, 2, 3);
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(*pair->payload, healthy_pair);
  EXPECT_EQ(pair->stats.merges_performed, 1u);  // The rebuild of (1, 1).
  EXPECT_EQ(reopened.stats().nodes_built, 2u);

  // The rebuilt nodes were re-appended: a further restart reads them
  // without rebuilding.
  DurableStore<SpaceSaving> third(&storage);
  ASSERT_EQ(third.Open().streams, 1u);
  const auto again = third.QueryRangePayload(1, 0, kEpochs - 1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again->payload, healthy_answer);
  const auto pair_again = third.QueryRangePayload(1, 2, 3);
  ASSERT_TRUE(pair_again.has_value());
  EXPECT_EQ(*pair_again->payload, healthy_pair);
  EXPECT_EQ(third.stats().nodes_built, 0u);
}

// ---- Ingestion from the aggregation pipeline ----

TEST(StoreIngestTest, SealResultRecordsCoverageAndLostMass) {
  MemStorage storage;
  DurableStoreOptions options;
  options.store.epsilon = 0.1;
  DurableStore<SpaceSaving> store(&storage, options);

  AggregationResult<SpaceSaving> result;
  result.summary = MakeEpochSummary(0);
  result.shards_total = 4;
  result.shards_received = 3;
  ASSERT_TRUE(store.SealResult(1, /*epoch=*/10, result));

  ASSERT_EQ(store.EpochCount(1), 1u);
  const EpochMeta& meta = store.Metas(1)[0];
  EXPECT_EQ(meta.epoch, 10u);
  EXPECT_EQ(meta.n, result.summary->n());
  EXPECT_EQ(meta.shards_total, 4u);
  EXPECT_EQ(meta.shards_received, 3u);
  EXPECT_TRUE(meta.degraded());
  const ErrorAccounting accounting =
      AccountErrors(options.store.epsilon, 4, 3, result.summary->n(), 0);
  EXPECT_EQ(meta.lost_mass, accounting.lost_mass);
  EXPECT_EQ(meta.lost_mass_estimated, accounting.lost_mass_estimated);

  const auto outcome = store.QueryRangePayload(1, 10, 10);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->eps.degraded_epochs, 1u);
}

TEST(StoreIngestTest, SealResultRefusesCrashedOrEmptyResults) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  AggregationResult<SpaceSaving> empty;
  empty.shards_total = 4;
  EXPECT_FALSE(store.SealResult(1, 0, empty));

  AggregationResult<SpaceSaving> crashed;
  crashed.summary = MakeEpochSummary(0);
  crashed.crashed = true;
  EXPECT_FALSE(store.SealResult(1, 0, crashed));
  EXPECT_FALSE(store.HasStream(1));
}

// A coordinator epoch that crashed and was recovered seals exactly like
// the uninterrupted one: same metadata (coverage, lost mass), same
// segment files byte for byte.
TEST(StoreIngestTest, SealResultOfRecoveredEpochMatchesUninterruptedRun) {
  constexpr uint64_t kEpoch = 9;
  constexpr size_t kShards = 4;
  const auto make_transport = [] {
    FaultPlan plan;
    plan.KillShard(1);
    SimulatedTransport transport{plan};
    for (size_t shard = 0; shard < kShards; ++shard) {
      transport.Submit(shard,
                       MakeReportFrame(MakeEpochSummary(shard), shard, kEpoch));
    }
    return transport;
  };
  BackoffPolicy policy;
  policy.max_attempts = 2;
  DurableOptions options;
  options.checkpoint_every = 2;

  MemStorage reference_log;
  Coordinator<SpaceSaving> reference(kEpoch, policy);
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, &reference_log, options);
  ASSERT_FALSE(reference_result.crashed);
  MemStorage reference_store_storage;
  DurableStore<SpaceSaving> reference_store(&reference_store_storage);
  ASSERT_TRUE(reference_store.SealResult(2, kEpoch, reference_result));

  // Die after the checkpoint at two received reports is durable.
  CrashPoint point;
  point.mode = CrashMode::kAfterWrite;
  point.write_index = 4;
  MemStorage log_backend;
  CrashingStorage log(&log_backend, point);
  Coordinator<SpaceSaving> first(kEpoch, policy);
  SimulatedTransport crash_transport = make_transport();
  ASSERT_TRUE(first.RunDurable(crash_transport, kShards, &log, options).crashed);
  log.Restart();
  Coordinator<SpaceSaving> second(kEpoch, policy);
  ASSERT_TRUE(second.Recover(&log, options).used_snapshot);
  SimulatedTransport resume_transport = make_transport();
  const auto result = second.ResumeDurable(resume_transport, kShards);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, kShards - 1);

  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  ASSERT_TRUE(store.SealResult(2, kEpoch, result));
  const EpochMeta& meta = store.Metas(2)[0];
  const EpochMeta& want = reference_store.Metas(2)[0];
  EXPECT_EQ(meta.n, want.n);
  EXPECT_EQ(meta.shards_total, kShards);
  EXPECT_EQ(meta.shards_received, kShards - 1);
  EXPECT_EQ(meta.lost_mass, want.lost_mass);
  EXPECT_TRUE(meta.lost_mass_estimated);
  ASSERT_EQ(storage.List(), reference_store_storage.List());
  for (const std::string& file : storage.List()) {
    EXPECT_EQ(*storage.Read(file), *reference_store_storage.Read(file))
        << file;
  }
}

// A sealed leaf that rots underneath the store after Open() is
// quarantined by the first page-in: a query that starts on it is
// refused and one that crosses it answers the prefix before it, with
// the skipped mass in its bound. Nothing aborts, a seal whose new node
// needs the lost leaf still stands, and ranges that avoid the leaf keep
// answering in full.
TEST(StoreRecoveryTest, LostLeafRefusesItsQueriesInsteadOfAborting) {
  MemStorage storage;
  ASSERT_EQ(SealUpTo(&storage, 3), 3u);
  // A one-entry cache: Open()'s pre-warm leaves no leaf resident.
  DurableStoreOptions options;
  options.store.cache_capacity = 1;
  DurableStore<SpaceSaving> store(&storage, options);
  ASSERT_EQ(store.Open().streams, 1u);
  ASSERT_TRUE(RotRecord(storage, 0, 2));

  EXPECT_FALSE(store.QueryRangePayload(1, 2, 2).has_value());
  EXPECT_EQ(store.QuarantinedLeaves(1), std::vector<uint64_t>({2}));
  // Sealing epoch 3 completes node (1, 1) over the lost leaf: the leaf
  // is durable and the seal stands; the node is left unwritten.
  const SpaceSaving summary = MakeEpochSummary(3);
  EXPECT_TRUE(store.Seal(1, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(1), 4u);
  EXPECT_FALSE(store.log().ReadRecord(1, 1, 1).has_value());
  const auto crossing = store.QueryRangePayload(1, 0, 3);
  ASSERT_TRUE(crossing.has_value());
  EXPECT_TRUE(crossing->partial);
  EXPECT_EQ(crossing->covered_hi, 1u);
  const EpsilonReport expected = AccumulateEpsilonPartial(
      store.Metas(1), 0, 3, 1, options.store.epsilon);
  EXPECT_EQ(crossing->eps.lost_mass, expected.lost_mass);
  EXPECT_EQ(crossing->eps.full_stream_bound, expected.full_stream_bound);
  const auto before = store.QueryRangePayload(1, 0, 1);
  ASSERT_TRUE(before.has_value());
  EXPECT_FALSE(before->partial);
  EXPECT_EQ(*crossing->payload, *before->payload);
  const auto after = store.QueryRangePayload(1, 3, 3);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->partial);
  // Every page-in that met the loss named the one lost leaf.
  EXPECT_EQ(store.QuarantinedLeaves(1), std::vector<uint64_t>({2}));
  EXPECT_EQ(store.scrub_stats().epochs_quarantined, 1u);
}

TEST(StoreIngestTest, StoreStatsCountSealsAndBuilds) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  for (uint64_t e = 0; e < 8; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.epochs_sealed, 8u);
  EXPECT_EQ(stats.nodes_built, 7u);  // 8 leaves -> 7 internal nodes.
  EXPECT_GT(stats.bytes_written, 0u);
  // Each seal writes its leaf and nodes through the cache, so building
  // the next level up reads nothing back.
  EXPECT_EQ(stats.bytes_read, 0u);
}

}  // namespace
}  // namespace mergeable
