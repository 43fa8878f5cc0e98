// Coordinator tests: retry/backoff, dedup, malformed and incompatible
// rejection, one fold for Run, RunDurable and the ingest service's seal,
// and the headline robustness property — with k of m shards permanently
// lost the coordinator reports coverage (m-k)/m and the folded summary's
// error on the received data stays within the epsilon * n_received
// bound. (E1, bench_merge_topology, shows the bound under any merge
// tree; the coordinator folds left-deep in shard order.)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"

namespace mergeable {
namespace {

constexpr uint64_t kEpoch = 1;
constexpr size_t kShards = 12;
constexpr double kHhEpsilon = 0.02;
constexpr double kQuantileEpsilon = 0.05;

std::vector<std::vector<uint64_t>> TestShards() {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 1 << 16;
  spec.universe = 4096;
  spec.alpha = 1.1;
  const auto stream = GenerateStream(spec, 7);
  return PartitionStream(stream, kShards, PartitionPolicy::kRandom, 3);
}

BackoffPolicy TestPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 100;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 1000;
  return policy;
}

void SubmitSpaceSavingReports(
    SimulatedTransport& transport,
    const std::vector<std::vector<uint64_t>>& shards) {
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
    for (uint64_t item : shards[shard]) summary.Update(item);
    transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
  }
}

TEST(BackoffPolicyTest, CappedExponentialSchedule) {
  BackoffPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 3.0;
  policy.max_backoff_ms = 50;
  EXPECT_EQ(policy.BackoffBefore(0), 0u);
  EXPECT_EQ(policy.BackoffBefore(1), 10u);
  EXPECT_EQ(policy.BackoffBefore(2), 30u);
  EXPECT_EQ(policy.BackoffBefore(3), 50u);  // 90 capped to 50.
  EXPECT_EQ(policy.BackoffBefore(4), 50u);
}

TEST(BackoffPolicyTest, AttemptZeroAndZeroInitialAreFree) {
  BackoffPolicy policy;
  policy.initial_backoff_ms = 0;
  policy.multiplier = 2.0;
  EXPECT_EQ(policy.BackoffBefore(0), 0u);
  EXPECT_EQ(policy.BackoffBefore(7), 0u);
}

TEST(BackoffPolicyTest, HugeAttemptSaturatesAtCapWithoutOverflow) {
  BackoffPolicy policy;
  policy.initial_backoff_ms = 1000;
  policy.multiplier = 10.0;
  policy.max_backoff_ms = 30000;
  // 1000 * 10^4294967294 wraps many times over in integer arithmetic;
  // the schedule must clamp to the cap instead.
  EXPECT_EQ(policy.BackoffBefore(100), 30000u);
  EXPECT_EQ(policy.BackoffBefore(UINT32_MAX), 30000u);
}

TEST(BackoffPolicyTest, FractionalMultiplierDecaysToZero) {
  BackoffPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.multiplier = 0.5;
  policy.max_backoff_ms = 1000;
  EXPECT_EQ(policy.BackoffBefore(1), 100u);
  EXPECT_EQ(policy.BackoffBefore(2), 50u);
  EXPECT_EQ(policy.BackoffBefore(3), 25u);
}

TEST(BackoffPolicyDeathTest, NonPositiveMultiplierIsRejected) {
  BackoffPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 0.0;
  EXPECT_DEATH(policy.BackoffBefore(1), "multiplier must be positive");
  policy.multiplier = -2.0;
  EXPECT_DEATH(policy.BackoffBefore(1), "multiplier must be positive");
}

TEST(CoordinatorTest, DeadlineClampsBackoffSleep) {
  // A dead shard with large backoffs: the coordinator must not sleep
  // past the deadline, so total elapsed stays near deadline_ms even
  // though the next scheduled backoff alone would exceed it.
  FaultPlan plan;
  plan.KillShard(0);
  SimulatedTransport transport{plan};
  BackoffPolicy policy = TestPolicy();
  policy.max_attempts = 50;
  policy.initial_backoff_ms = 90;
  policy.multiplier = 4.0;
  policy.max_backoff_ms = 5000;
  policy.deadline_ms = 200;
  Coordinator<SpaceSaving> coordinator(kEpoch, policy);
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 0u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_LE(result.outcomes[0].elapsed_ms, policy.deadline_ms + 100);
}

TEST(CoordinatorTest, HealthyNetworkFullCoverage) {
  const auto shards = TestShards();
  SimulatedTransport transport{FaultPlan()};
  SubmitSpaceSavingReports(transport, shards);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);
  EXPECT_EQ(result.shards_received, kShards);
  EXPECT_DOUBLE_EQ(result.Coverage(), 1.0);
  EXPECT_FALSE(result.Degraded());
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.malformed_rejected, 0u);
  ASSERT_TRUE(result.summary.has_value());
  uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(result.summary->n(), total);
}

TEST(CoordinatorTest, TransientDropsAreRecoveredByRetry) {
  const auto shards = TestShards();
  FaultSpec spec;
  spec.drop_probability = 0.4;
  SimulatedTransport transport{FaultPlan(spec, 11)};
  SubmitSpaceSavingReports(transport, shards);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);
  // With 5 attempts at 40% drop, per-shard loss probability is ~1%; the
  // fixed seed makes the outcome deterministic and fully recovered.
  EXPECT_EQ(result.shards_received, kShards);
  EXPECT_GT(result.retries, 0u);
}

TEST(CoordinatorTest, CorruptedFramesAreRejectedThenRetried) {
  const auto shards = TestShards();
  FaultSpec spec;
  spec.bit_flip_probability = 0.3;
  spec.truncate_probability = 0.1;
  SimulatedTransport transport{FaultPlan(spec, 21)};
  SubmitSpaceSavingReports(transport, shards);
  // ~37% of attempts corrupt; 8 attempts make per-shard loss ~0.04%, and
  // the fixed seed pins the outcome: every shard recovers.
  BackoffPolicy policy = TestPolicy();
  policy.max_attempts = 8;
  Coordinator<SpaceSaving> coordinator(kEpoch, policy);
  const auto result = coordinator.Run(transport, kShards);
  EXPECT_GT(result.malformed_rejected, 0u);
  // Corruption is per-attempt, so retries recover every shard here.
  EXPECT_EQ(result.shards_received, kShards);
  ASSERT_TRUE(result.summary.has_value());
  // No corrupted payload may ever be merged: n must match exactly.
  uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(result.summary->n(), total);
}

TEST(CoordinatorTest, DuplicatesAreRejectedByShardAndEpoch) {
  const auto shards = TestShards();
  FaultSpec spec;
  spec.duplicate_probability = 1.0;
  SimulatedTransport transport{FaultPlan(spec, 31)};
  SubmitSpaceSavingReports(transport, shards);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);
  EXPECT_EQ(result.shards_received, kShards);
  EXPECT_EQ(result.duplicates_rejected, kShards);
  uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  // Double-counting a shard would inflate n; dedup must prevent that.
  EXPECT_EQ(result.summary->n(), total);
}

TEST(CoordinatorTest, StragglersDoNotDoubleCount) {
  const auto shards = TestShards();
  FaultSpec spec;
  spec.delay_probability = 0.5;
  spec.delay_ms = 400;  // Past the 50ms attempt timeout.
  SimulatedTransport transport{FaultPlan(spec, 41)};
  SubmitSpaceSavingReports(transport, shards);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);
  EXPECT_EQ(result.shards_received, kShards);
  uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  EXPECT_EQ(result.summary->n(), total);
}

TEST(CoordinatorTest, WrongEpochReportsAreRejected) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
  summary.Update(1);
  SimulatedTransport transport{FaultPlan()};
  transport.Submit(0, MakeReportFrame(summary, /*shard_id=*/0,
                                      /*epoch=*/kEpoch + 1));
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 0u);
  EXPECT_GT(result.malformed_rejected, 0u);
  EXPECT_FALSE(result.summary.has_value());
}

TEST(CoordinatorTest, MisroutedShardIdsAreRejected) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
  summary.Update(1);
  SimulatedTransport transport{FaultPlan()};
  // Frame claims shard 7 but is served on shard 0's channel.
  transport.Submit(0, MakeReportFrame(summary, /*shard_id=*/7, kEpoch));
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 0u);
  EXPECT_GT(result.malformed_rejected, 0u);
}

// A report frame is a BAT1 holding exactly one record. A batch of two
// for the right shard and epoch is malformed like any corrupt frame:
// it is counted, nothing of it is merged, and the shard is fetched
// again — the retry's one-record frame lands.
TEST(CoordinatorTest, MultiRecordFramesAreMalformedAndRefetched) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
  summary.Update(1);
  const WireReport report{0, kEpoch, EncodeSummary(summary)};
  WireBatch two;
  two.reports = {report, report};

  // First attempt: the two-record batch. Every later one: the report.
  class TwoThenOne : public Transport {
   public:
    TwoThenOne(std::vector<uint8_t> first, std::vector<uint8_t> rest)
        : first_(std::move(first)), rest_(std::move(rest)) {}
    DeliveryAttempt Deliver(uint64_t, uint32_t attempt) override {
      DeliveryAttempt delivery;
      delivery.frames.push_back(attempt == 0 ? first_ : rest_);
      return delivery;
    }

   private:
    std::vector<uint8_t> first_;
    std::vector<uint8_t> rest_;
  } transport(EncodeBatchFrame(two), MakeReportFrame(summary, 0, kEpoch));

  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 1u);
  EXPECT_EQ(result.malformed_rejected, 1u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].attempts, 2u);
  EXPECT_EQ(result.outcomes[0].malformed, 1u);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), 1u);  // Merged once, not twice.
}

// Shard 1's worker is configured differently: its report is valid but
// of a shape the fold cannot merge, which would abort the merge. Run and
// RunDurable both give the shard up as incompatible after one attempt
// — a retry would fetch the same report — and fold the other two.
// (SpaceSaving merges across capacities, so it has no such shape.)
template <typename S>
void ExpectIncompatibleShardGivenUp(const S& good, const S& other) {
  std::optional<S> expected;
  const std::vector<uint8_t> good_bytes = EncodeSummary(good);
  FoldPayloadInto(expected, good_bytes.data(), good_bytes.size());
  FoldPayloadInto(expected, good_bytes.data(), good_bytes.size());

  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "RunDurable" : "Run");
    SimulatedTransport transport{FaultPlan()};
    transport.Submit(0, MakeReportFrame(good, 0, kEpoch));
    transport.Submit(1, MakeReportFrame(other, 1, kEpoch));
    transport.Submit(2, MakeReportFrame(good, 2, kEpoch));
    MemStorage wal;
    Coordinator<S> coordinator(kEpoch, TestPolicy());
    const auto result = durable ? coordinator.RunDurable(transport, 3, &wal)
                                : coordinator.Run(transport, 3);
    EXPECT_EQ(result.shards_received, 2u);
    EXPECT_EQ(result.incompatible_rejected, 1u);
    ASSERT_EQ(result.outcomes.size(), 3u);
    EXPECT_EQ(result.outcomes[1].status, ShardOutcome::Status::kLost);
    EXPECT_EQ(result.outcomes[1].attempts, 1u);
    ASSERT_TRUE(result.summary.has_value());
    EXPECT_EQ(result.summary->n(), 2 * good.n());
    EXPECT_EQ(EncodeSummary(*result.summary), EncodeSummary(*expected));
  }
}

TEST(CoordinatorTest, IncompatibleSummariesAreRejectedNotMerged) {
  CountMinSketch good(4, 64, /*seed=*/9);
  CountMinSketch narrow(4, 32, /*seed=*/9);
  for (uint64_t item = 0; item < 50; ++item) {
    good.Update(item % 7);
    narrow.Update(item % 5);
  }
  ExpectIncompatibleShardGivenUp(good, narrow);
}

TEST(CoordinatorTest, MisraGriesOfAnotherCapacityIsRejectedNotMerged) {
  MisraGries good(16);
  MisraGries small(4);
  for (uint64_t item = 0; item < 50; ++item) {
    good.Update(item % 7);
    small.Update(item % 5);
  }
  ExpectIncompatibleShardGivenUp(good, small);
}

// An elastic sketch merges across widths but not across seeds.
TEST(CoordinatorTest, ElasticSketchesOfAnotherSeedAreRejectedNotMerged) {
  ElasticCountMin good_cm(4, 64, /*seed=*/9);
  ElasticCountMin other_cm(4, 64, /*seed=*/10);
  ElasticCountSketch good_cs(4, 64, /*seed=*/9);
  ElasticCountSketch other_cs(4, 64, /*seed=*/10);
  for (uint64_t item = 0; item < 50; ++item) {
    good_cm.Update(item % 7);
    other_cm.Update(item % 5);
    good_cs.Update(item % 7);
    other_cs.Update(item % 5);
  }
  ExpectIncompatibleShardGivenUp(good_cm, other_cm);
  ExpectIncompatibleShardGivenUp(good_cs, other_cs);
}

// One fold gives one set of bytes. Under drops, duplicates and
// corruption, Run's summary encodes byte-identically to RunDurable's and
// to the ingest service's seal of the reports the coordinator received,
// admitted in reverse shard order.
TEST(CoordinatorTest, RunRunDurableAndServiceSealFoldToTheSameBytes) {
  const auto shards = TestShards();
  FaultSpec spec;
  spec.drop_probability = 0.3;
  spec.duplicate_probability = 0.3;
  spec.bit_flip_probability = 0.2;
  spec.truncate_probability = 0.1;
  const auto make_transport = [&shards, &spec] {
    SimulatedTransport transport{FaultPlan(spec, 51)};
    SubmitSpaceSavingReports(transport, shards);
    return transport;
  };

  SimulatedTransport run_transport = make_transport();
  Coordinator<SpaceSaving> in_memory(kEpoch, TestPolicy());
  const auto run = in_memory.Run(run_transport, kShards);
  ASSERT_TRUE(run.summary.has_value());
  EXPECT_GT(run.malformed_rejected, 0u);
  EXPECT_GT(run.duplicates_rejected, 0u);
  EXPECT_GT(run.retries, 0u);
  const std::vector<uint8_t> run_bytes = EncodeSummary(*run.summary);

  MemStorage wal;
  SimulatedTransport durable_transport = make_transport();
  Coordinator<SpaceSaving> logged(kEpoch, TestPolicy());
  const auto durable = logged.RunDurable(durable_transport, kShards, &wal);
  ASSERT_FALSE(durable.crashed);
  ASSERT_TRUE(durable.summary.has_value());
  EXPECT_EQ(EncodeSummary(*durable.summary), run_bytes);

  constexpr uint64_t kStream = 1;
  MemStorage storage;
  DurableStoreOptions store_options;
  store_options.store.epsilon = kHhEpsilon;
  DurableStore<SpaceSaving> store(&storage, store_options);
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = kShards;
  EpochService<SpaceSaving> service(&store, config);
  uint64_t offered = 0;
  for (size_t shard = kShards; shard-- > 0;) {
    offered += shards[shard].size();
    if (run.outcomes[shard].status != ShardOutcome::Status::kReceived) {
      continue;
    }
    SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
    for (uint64_t item : shards[shard]) summary.Update(item);
    const std::optional<WireBatchVerdict> verdict = DecodeBatchVerdictFrame(
        service.HandleBatch(MakeReportFrame(summary, shard, kEpoch)));
    ASSERT_TRUE(verdict.has_value());
    ASSERT_EQ(verdict->codes.size(), 1u);
    EXPECT_EQ(verdict->codes[0], ControlCode::kAccepted);
  }
  ASSERT_TRUE(service.SealEpoch(kEpoch, offered));
  const auto sealed = store.QueryRangePayload(kStream, kEpoch, kEpoch);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(*sealed->payload, run_bytes);
}

TEST(CoordinatorTest, DeadlineStopsRetrying) {
  FaultPlan plan;
  plan.KillShard(0);
  SimulatedTransport transport{plan};
  SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
  summary.Update(1);
  transport.Submit(0, MakeReportFrame(summary, 0, kEpoch));
  BackoffPolicy policy = TestPolicy();
  policy.max_attempts = 100;
  policy.deadline_ms = 120;  // Only a few attempts fit.
  Coordinator<SpaceSaving> coordinator(kEpoch, policy);
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 0u);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_LT(result.outcomes[0].attempts, 10u);
  EXPECT_LE(result.outcomes[0].elapsed_ms, policy.deadline_ms + 50);
}

// One coordinator, two consecutive epochs. Before AdvanceEpoch existed,
// the dedup/outcome state of epoch 1 leaked into epoch 2 and every
// second-epoch report was either misrejected or double-merged.
TEST(CoordinatorTest, ReusableAcrossEpochsAfterAdvance) {
  const auto shards = TestShards();
  uint64_t total = 0;
  for (const auto& shard : shards) total += shard.size();

  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  for (uint64_t epoch = kEpoch; epoch < kEpoch + 2; ++epoch) {
    if (epoch != kEpoch) coordinator.AdvanceEpoch(epoch);
    EXPECT_EQ(coordinator.epoch(), epoch);
    SimulatedTransport transport{FaultPlan()};
    for (size_t shard = 0; shard < shards.size(); ++shard) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
      for (uint64_t item : shards[shard]) summary.Update(item);
      transport.Submit(shard, MakeReportFrame(summary, shard, epoch));
    }
    const auto result = coordinator.Run(transport, kShards);
    EXPECT_EQ(result.shards_received, kShards) << "epoch " << epoch;
    EXPECT_EQ(result.duplicates_rejected, 0u) << "epoch " << epoch;
    EXPECT_EQ(result.malformed_rejected, 0u) << "epoch " << epoch;
    ASSERT_TRUE(result.summary.has_value());
    // Stale epoch-1 state leaking in would double n or drop shards.
    EXPECT_EQ(result.summary->n(), total) << "epoch " << epoch;
  }
}

TEST(CoordinatorTest, StaleEpochReportsRejectedAfterAdvance) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kHhEpsilon);
  summary.Update(1);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  coordinator.AdvanceEpoch(kEpoch + 1);
  // A straggler frame from the previous epoch must not be merged.
  SimulatedTransport transport{FaultPlan()};
  transport.Submit(0, MakeReportFrame(summary, 0, kEpoch));
  const auto result = coordinator.Run(transport, 1);
  EXPECT_EQ(result.shards_received, 0u);
  EXPECT_GT(result.malformed_rejected, 0u);
}

TEST(CoordinatorDeathTest, AdvanceToSameEpochIsRejected) {
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  EXPECT_DEATH(coordinator.AdvanceEpoch(kEpoch),
               "AdvanceEpoch requires a different epoch");
}

// The acceptance-criteria test: k of m shards permanently lost. The
// coordinator must report coverage (m-k)/m, and the heavy-hitter error
// measured against the union of the *received* shards must stay within
// epsilon * n_received — mergeability is exactly what makes partial
// aggregation sound.
TEST(CoordinatorTest, DegradedCoverageKeepsHeavyHitterBound) {
  const auto shards = TestShards();
  const std::vector<uint64_t> dead = {2, 5, 9};

  // Ground truth over the received shards only.
  std::unordered_map<uint64_t, uint64_t> truth;
  uint64_t n_received = 0;
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    if (std::find(dead.begin(), dead.end(), shard) != dead.end()) continue;
    for (uint64_t item : shards[shard]) ++truth[item];
    n_received += shards[shard].size();
  }
  uint64_t n_total = 0;
  for (const auto& shard : shards) n_total += shard.size();

  FaultPlan plan;
  for (uint64_t shard : dead) plan.KillShard(shard);
  SimulatedTransport transport{plan};
  SubmitSpaceSavingReports(transport, shards);
  Coordinator<SpaceSaving> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);

  EXPECT_EQ(result.shards_received, kShards - dead.size());
  EXPECT_DOUBLE_EQ(result.Coverage(),
                   static_cast<double>(kShards - dead.size()) / kShards);
  EXPECT_TRUE(result.Degraded());
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), n_received);

  // Error on received data: |count estimate - true count| over every
  // universe item, within epsilon * n_received.
  const double bound = kHhEpsilon * static_cast<double>(n_received);
  for (uint64_t item = 0; item < 4096; ++item) {
    const auto it = truth.find(item);
    const double true_count =
        it == truth.end() ? 0.0 : static_cast<double>(it->second);
    const double estimate =
        static_cast<double>(result.summary->Count(item));
    EXPECT_LE(std::abs(estimate - true_count), bound) << "item " << item;
  }

  // Error accounting: the received bound is epsilon * n_received; the
  // full-stream bound widens by exactly the known lost mass.
  const ErrorAccounting accounting =
      AccountErrors(result, kHhEpsilon, n_total);
  EXPECT_DOUBLE_EQ(accounting.received_bound, bound);
  EXPECT_EQ(accounting.lost_mass, n_total - n_received);
  EXPECT_FALSE(accounting.lost_mass_estimated);
  EXPECT_DOUBLE_EQ(accounting.full_stream_bound,
                   bound + static_cast<double>(n_total - n_received));
  EXPECT_DOUBLE_EQ(accounting.coverage, result.Coverage());

  // Without the expected total, the lost mass is estimated from the
  // mean received shard weight (flagged as an estimate).
  const ErrorAccounting estimated = AccountErrors(result, kHhEpsilon);
  EXPECT_TRUE(estimated.lost_mass_estimated);
  EXPECT_GT(estimated.lost_mass, 0u);
}

// Same acceptance property for quantiles: rank error on received data
// within epsilon * n_received.
TEST(CoordinatorTest, DegradedCoverageKeepsQuantileBound) {
  const auto shards = TestShards();
  const std::vector<uint64_t> dead = {0, 7};

  std::vector<double> received_values;
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    if (std::find(dead.begin(), dead.end(), shard) != dead.end()) continue;
    for (uint64_t item : shards[shard]) {
      received_values.push_back(static_cast<double>(item));
    }
  }
  std::sort(received_values.begin(), received_values.end());
  const uint64_t n_received = received_values.size();

  FaultPlan plan;
  for (uint64_t shard : dead) plan.KillShard(shard);
  SimulatedTransport transport{plan};
  for (size_t shard = 0; shard < shards.size(); ++shard) {
    MergeableQuantiles summary =
        MergeableQuantiles::ForEpsilon(kQuantileEpsilon, 100 + shard);
    for (uint64_t item : shards[shard]) {
      summary.Update(static_cast<double>(item));
    }
    transport.Submit(shard, MakeReportFrame(summary, shard, kEpoch));
  }
  Coordinator<MergeableQuantiles> coordinator(kEpoch, TestPolicy());
  const auto result = coordinator.Run(transport, kShards);

  EXPECT_DOUBLE_EQ(result.Coverage(),
                   static_cast<double>(kShards - dead.size()) / kShards);
  ASSERT_TRUE(result.summary.has_value());
  EXPECT_EQ(result.summary->n(), n_received);

  const double bound = kQuantileEpsilon * static_cast<double>(n_received);
  for (double x : {10.0, 50.0, 200.0, 1000.0, 3000.0}) {
    const auto true_rank = static_cast<double>(
        std::upper_bound(received_values.begin(), received_values.end(),
                         x) -
        received_values.begin());
    const double estimate =
        static_cast<double>(result.summary->Rank(x));
    EXPECT_LE(std::abs(estimate - true_rank), bound) << "x=" << x;
  }
}

}  // namespace
}  // namespace mergeable
