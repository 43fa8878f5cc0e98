// Store persistence: Open() recovery after restarts and injected
// crashes, lazy rebuild of torn internal nodes, and ingestion of
// coordinator results, recovered ones included.

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
#include "mergeable/store/summary_store.h"
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

// Seals `epochs` summaries into a fresh store over `storage`; returns
// how many seals succeeded before the first failure.
uint64_t SealUpTo(Storage* storage, uint64_t epochs, uint64_t base = 0) {
  SummaryStore<SpaceSaving> store(storage);
  for (uint64_t e = 0; e < epochs; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    if (!store.Seal(1, summary, MetaFor(base + e, summary))) return e;
  }
  return epochs;
}

TEST(StoreRecoveryTest, OpenRestoresStreamsAndAnswersIdentically) {
  MemStorage storage;
  constexpr uint64_t kEpochs = 13;
  std::vector<std::vector<uint8_t>> reference;
  {
    SummaryStore<SpaceSaving> store(&storage);
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
  SummaryStore<SpaceSaving> reopened(&storage);
  ASSERT_EQ(reopened.Open(), 1u);
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
    SummaryStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < 5; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
      ASSERT_TRUE(store.Seal(2, summary, MetaFor(50 + e, summary)));
    }
  }
  SummaryStore<SpaceSaving> reopened(&storage);
  EXPECT_EQ(reopened.Open(), 2u);
  EXPECT_EQ(reopened.EpochCount(1), 5u);
  EXPECT_EQ(reopened.EpochCount(2), 5u);
  EXPECT_EQ(reopened.BaseEpoch(2), 50u);
}

// A torn or corrupted internal node is rebuilt from its children,
// byte-identically, and re-persisted for the next restart.
TEST(StoreRecoveryTest, TornInternalNodeIsRebuiltByteIdentically) {
  MemStorage storage;
  constexpr uint64_t kEpochs = 8;
  std::vector<uint8_t> healthy_answer;
  {
    SummaryStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < kEpochs; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
    }
    healthy_answer = *store.QueryRangePayload(1, 0, kEpochs - 1)->payload;
  }

  // Smash the level-3 root node and one level-1 node on storage (the
  // documented layout: <prefix>/s<stream>/n<level>.<index>).
  const std::vector<uint8_t> junk = {0xba, 0xad};
  ASSERT_TRUE(storage.Read("store/s1/n3.0").has_value());
  ASSERT_TRUE(storage.Rewrite("store/s1/n3.0", junk));
  ASSERT_TRUE(storage.Rewrite("store/s1/n1.1", junk));

  SummaryStore<SpaceSaving> reopened(&storage);
  ASSERT_EQ(reopened.Open(), 1u);
  const auto outcome = reopened.QueryRangePayload(1, 0, kEpochs - 1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome->payload, healthy_answer);
  EXPECT_GT(outcome->stats.merges_performed, 0u);  // Rebuilds happened.

  // The rebuilt nodes were re-persisted: a further restart reads them
  // without rebuilding.
  SummaryStore<SpaceSaving> third(&storage);
  ASSERT_EQ(third.Open(), 1u);
  const auto again = third.QueryRangePayload(1, 0, kEpochs - 1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again->payload, healthy_answer);
  EXPECT_EQ(again->stats.merges_performed,
            again->stats.nodes_merged - 1);  // Only the query's own fold.
}

// A torn *leaf* ends the recovered prefix: epochs before it stay
// queryable, epochs after it are not admitted.
TEST(StoreRecoveryTest, TornLeafTruncatesTheRecoveredPrefix) {
  MemStorage storage;
  {
    SummaryStore<SpaceSaving> store(&storage);
    for (uint64_t e = 0; e < 6; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(1, summary, MetaFor(e, summary)));
    }
  }
  std::vector<uint8_t> torn = *storage.Read("store/s1/n0.3");
  torn.resize(torn.size() / 2);
  ASSERT_TRUE(storage.Rewrite("store/s1/n0.3", torn));

  SummaryStore<SpaceSaving> reopened(&storage);
  ASSERT_EQ(reopened.Open(), 1u);
  EXPECT_EQ(reopened.EpochCount(1), 3u);
  EXPECT_TRUE(reopened.QueryRangePayload(1, 0, 2).has_value());
  EXPECT_FALSE(reopened.QueryRangePayload(1, 0, 3).has_value());
}

// The crash matrix: die at every write boundary in every mode; after
// restart, Open() recovers a consistent prefix whose answers are
// byte-identical to a healthy store's over the same epochs.
TEST(StoreRecoveryTest, CrashMatrixRecoversConsistentPrefix) {
  constexpr uint64_t kEpochs = 6;
  // Dry run: count the writes and capture healthy per-prefix answers.
  MemStorage healthy;
  const uint64_t total_writes = [&] {
    SealUpTo(&healthy, kEpochs);
    return healthy.writes_attempted();
  }();
  SummaryStore<SpaceSaving> healthy_store(&healthy);
  ASSERT_EQ(healthy_store.Open(), 1u);

  for (const CrashPoint& crash : CrashMatrix(total_writes, /*seed=*/9)) {
    MemStorage storage(crash);
    SealUpTo(&storage, kEpochs);
    storage.Restart();

    SummaryStore<SpaceSaving> recovered(&storage);
    const size_t streams = recovered.Open();
    if (streams == 0) continue;  // Crashed before the first durable leaf.
    const uint64_t epochs = recovered.EpochCount(1);
    ASSERT_LE(epochs, kEpochs);
    for (uint64_t hi = 0; hi < epochs; ++hi) {
      const auto got = recovered.QueryRangePayload(1, 0, hi);
      const auto want = healthy_store.QueryRangePayload(1, 0, hi);
      ASSERT_TRUE(got.has_value());
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(*got->payload, *want->payload)
          << "write " << crash.write_index << " mode "
          << ToString(crash.mode) << " range [0, " << hi << "]";
    }
    // Sealing can resume where recovery left off.
    const SpaceSaving next = MakeEpochSummary(epochs);
    ASSERT_TRUE(recovered.Seal(1, next, MetaFor(epochs, next)));
  }
}

// ---- Ingestion from the aggregation pipeline ----

TEST(StoreIngestTest, SealResultRecordsCoverageAndLostMass) {
  MemStorage storage;
  StoreOptions options;
  options.epsilon = 0.1;
  SummaryStore<SpaceSaving> store(&storage, options);

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
      AccountErrors(options.epsilon, 4, 3, result.summary->n(), 0);
  EXPECT_EQ(meta.lost_mass, accounting.lost_mass);
  EXPECT_EQ(meta.lost_mass_estimated, accounting.lost_mass_estimated);

  const auto outcome = store.QueryRangePayload(1, 10, 10);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->eps.degraded_epochs, 1u);
}

TEST(StoreIngestTest, SealResultRefusesCrashedOrEmptyResults) {
  MemStorage storage;
  SummaryStore<SpaceSaving> store(&storage);
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
// store files byte for byte.
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
  Coordinator<SpaceSaving> reference(kEpoch, policy,
                                     MergeTopology::kLeftDeepChain);
  SimulatedTransport reference_transport = make_transport();
  const auto reference_result = reference.RunDurable(
      reference_transport, kShards, &reference_log, options);
  ASSERT_FALSE(reference_result.crashed);
  MemStorage reference_store_storage;
  SummaryStore<SpaceSaving> reference_store(&reference_store_storage);
  ASSERT_TRUE(reference_store.SealResult(2, kEpoch, reference_result));

  // Die after the checkpoint at two received reports is durable.
  CrashPoint point;
  point.mode = CrashMode::kAfterWrite;
  point.write_index = 4;
  MemStorage log(point);
  Coordinator<SpaceSaving> first(kEpoch, policy,
                                 MergeTopology::kLeftDeepChain);
  SimulatedTransport crash_transport = make_transport();
  ASSERT_TRUE(first.RunDurable(crash_transport, kShards, &log, options).crashed);
  log.Restart();
  Coordinator<SpaceSaving> second(kEpoch, policy,
                                  MergeTopology::kLeftDeepChain);
  ASSERT_TRUE(second.Recover(&log, options).used_snapshot);
  SimulatedTransport resume_transport = make_transport();
  const auto result = second.ResumeDurable(resume_transport, kShards);
  ASSERT_FALSE(result.crashed);
  EXPECT_EQ(result.shards_received, kShards - 1);

  MemStorage storage;
  SummaryStore<SpaceSaving> store(&storage);
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

// A sealed leaf that rots underneath the store is reported to the
// LeafLossHandler and refuses the queries that need it; nothing aborts,
// a seal whose new node needs the lost leaf still stands, and ranges
// that avoid the leaf keep answering.
TEST(StoreRecoveryTest, LostLeafRefusesItsQueriesInsteadOfAborting) {
  MemStorage storage;
  ASSERT_EQ(SealUpTo(&storage, 3), 3u);
  std::vector<std::pair<uint64_t, uint64_t>> lost;
  SummaryStore<SpaceSaving> store(
      &storage, StoreOptions{},
      [&lost](uint64_t stream, uint64_t index) {
        lost.emplace_back(stream, index);
      });
  ASSERT_EQ(store.Open(), 1u);
  const std::string leaf = "store/s1/n0.2";
  std::vector<uint8_t> rotted = *storage.Read(leaf);
  rotted[rotted.size() / 2] ^= 0x10;
  ASSERT_TRUE(storage.Rewrite(leaf, rotted));

  EXPECT_FALSE(store.QueryRangePayload(1, 2, 2).has_value());
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], std::make_pair(uint64_t{1}, uint64_t{2}));
  // Sealing epoch 3 completes node (1, 1) over the lost leaf: the leaf
  // is durable and the seal stands; the node is left unwritten.
  const SpaceSaving summary = MakeEpochSummary(3);
  EXPECT_TRUE(store.Seal(1, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(1), 4u);
  EXPECT_FALSE(storage.Read("store/s1/n1.1").has_value());
  EXPECT_FALSE(store.QueryRangePayload(1, 0, 3).has_value());
  EXPECT_TRUE(store.QueryRangePayload(1, 0, 1).has_value());
  EXPECT_TRUE(store.QueryRangePayload(1, 3, 3).has_value());
  // Every report names the one lost leaf; each failed build retried it.
  EXPECT_GT(lost.size(), 2u);
  for (const auto& report : lost) {
    EXPECT_EQ(report, std::make_pair(uint64_t{1}, uint64_t{2}));
  }
}

TEST(StoreIngestTest, StoreStatsCountSealsAndBuilds) {
  MemStorage storage;
  SummaryStore<SpaceSaving> store(&storage);
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
