// The autoscale arc over real loopback sockets: a RebalanceController
// scripts N -> 2N -> N, its TOP1 frames ride the same TCP stream as
// reports and queries, the EpochService re-denominates per-epoch
// coverage, and every epoch's offered/accepted mass is accounted to the
// byte through seal and query. Also: mid-epoch shard-count changes
// dropping orphaned pending reports, rejection of announcements for
// sealed epochs, admission's priority class for topology frames, and
// the default handler's hard reject.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/elastic/rebalance.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr double kEpsilon = 0.02;

// The store every harness here seals into: default cache, the tests'
// epsilon.
DurableStoreOptions TestStore() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  return options;
}

SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, uint64_t shards,
                         int items = 150) {
  // Each shard reports the items it owns under the epoch's topology:
  // item % shards == shard, the same routing the split recipe uses.
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(10'000 * epoch + shard);
  for (int i = 0; i < items; ++i) {
    summary.Update(rng.UniformInt(40) * shards + shard);
  }
  return summary;
}

BackoffPolicy FastPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 8;
  return policy;
}

struct Harness {
  MemStorage storage;
  DurableStore<SpaceSaving> store;
  EpochService<SpaceSaving> service;
  IngestServer server;

  explicit Harness(uint64_t base_shards)
      : store(&storage, TestStore()),
        service(&store, MakeConfig(base_shards)),
        server(&service, ServerConfig{}) {}

  static EpochServiceConfig MakeConfig(uint64_t base_shards) {
    EpochServiceConfig config;
    config.stream = kStream;
    config.shards_per_epoch = base_shards;
    return config;
  }
};

// Sends a topology frame and returns the control verdict.
std::optional<WireControl> SendTopology(IngestClient& client,
                                        const std::vector<uint8_t>& frame) {
  if (!client.SendFrame(frame)) return std::nullopt;
  const auto response = client.ReadFrame();
  if (!response.has_value()) return std::nullopt;
  return DecodeControlFrame(*response);
}

TEST(RebalanceServiceTest, ScriptedAutoscaleArcSealsEveryEpoch) {
  constexpr uint64_t kBase = 2;
  constexpr uint64_t kEpochs = 6;
  Harness harness(kBase);
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  // The arc: 2 shards, double to 4 at epoch 2, halve back at epoch 4.
  RebalanceController controller(kBase);
  controller.AddStep(/*effective_epoch=*/2, /*shard_count=*/4);
  controller.AddStep(/*effective_epoch=*/4, /*shard_count=*/2);

  // Announce both steps up front — epoch scoping makes early
  // announcement safe (they only bite at their effective epoch).
  for (size_t step = 0; step < controller.steps().size(); ++step) {
    const auto verdict = SendTopology(client, controller.EncodeStep(step));
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->code, ControlCode::kAccepted);
    EXPECT_EQ(verdict->shard_id, controller.steps()[step].shard_count);
    EXPECT_EQ(verdict->epoch, controller.steps()[step].effective_epoch);
  }

  // Both sides agree on every epoch's denominator before any report.
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    EXPECT_EQ(harness.service.shards_for_epoch(epoch),
              controller.ShardsForEpoch(epoch))
        << "epoch " << epoch;
  }

  std::vector<uint64_t> offered(kEpochs, 0);
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    const uint64_t shards = controller.ShardsForEpoch(epoch);
    for (uint64_t shard = 0; shard < shards; ++shard) {
      const SpaceSaving summary = ShardSummary(epoch, shard, shards);
      offered[epoch] += summary.n();
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      ASSERT_EQ(client.SendBatch({report}, FastPolicy()).status,
                SendStatus::kAccepted)
          << "epoch " << epoch << " shard " << shard;
    }
    harness.server.Drain();
    ASSERT_TRUE(harness.service.SealEpoch(epoch, offered[epoch]));
  }

  // Zero loss: every epoch's accepted mass equals its offered mass,
  // under its own denominator.
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    WireQuery query;
    query.stream = kStream;
    query.t1 = epoch;
    query.t2 = epoch;
    const auto answer = client.Query(query);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->status, AnswerStatus::kOk);
    EXPECT_EQ(answer->n_received, offered[epoch]) << "epoch " << epoch;
    EXPECT_EQ(answer->lost_mass, 0u) << "epoch " << epoch;
    EXPECT_DOUBLE_EQ(answer->coverage, 1.0) << "epoch " << epoch;
  }

  // The whole-arc range answer accounts the full offered mass.
  WireQuery range;
  range.stream = kStream;
  range.t1 = 0;
  range.t2 = kEpochs - 1;
  const auto answer = client.Query(range);
  ASSERT_TRUE(answer.has_value());
  uint64_t total = 0;
  for (const uint64_t mass : offered) total += mass;
  EXPECT_EQ(answer->n_received, total);
  EXPECT_EQ(answer->lost_mass, 0u);

  const EpochServiceStats stats = harness.service.stats();
  EXPECT_EQ(stats.topology_accepted, 2u);
  EXPECT_EQ(stats.topology_rejected, 0u);
  EXPECT_EQ(stats.reports_dropped_topology, 0u);
  harness.server.Stop();
}

TEST(RebalanceServiceTest, MidEpochShrinkDropsOrphanedReports) {
  Harness harness(/*base_shards=*/4);
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  // All four shards report epoch 0 first...
  uint64_t offered = 0;
  uint64_t surviving = 0;
  for (uint64_t shard = 0; shard < 4; ++shard) {
    const SpaceSaving summary = ShardSummary(0, shard, 4);
    offered += summary.n();
    if (shard < 2) surviving += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = 0;
    report.payload = EncodeSummary(summary);
    ASSERT_EQ(client.SendBatch({report}, FastPolicy()).status,
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  ASSERT_EQ(harness.service.pending_reports(), 4u);

  // ... then a mid-epoch halving lands, effective immediately: the
  // already-admitted reports from shards 2 and 3 are orphaned.
  WireTopology topology;
  topology.effective_epoch = 0;
  topology.shard_count = 2;
  topology.ops = PlanTopologyOps(4, 2);
  const auto verdict = SendTopology(client, EncodeTopologyFrame(topology));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ControlCode::kAccepted);
  EXPECT_EQ(harness.service.pending_reports(), 2u);
  EXPECT_EQ(harness.service.stats().reports_dropped_topology, 2u);

  // A straggler from a now-out-of-range shard is rejected outright.
  WireReport late;
  late.shard_id = 3;
  late.epoch = 0;
  late.payload = EncodeSummary(ShardSummary(0, 3, 4));
  EXPECT_EQ(client.SendBatch({late}, FastPolicy()).status,
            SendStatus::kRejected);

  // The seal uses the new denominator; the orphaned mass is lost mass.
  ASSERT_TRUE(harness.service.SealEpoch(0, offered));
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  const auto answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->n_received, surviving);
  EXPECT_EQ(answer->lost_mass, offered - surviving);
  EXPECT_DOUBLE_EQ(answer->coverage, 1.0);  // 2 of 2 expected shards.
  harness.server.Stop();
}

// The shrink drops shard 3's report and with it the shard's dedup
// state: when a second announcement grows the same open epoch back, the
// shard's resend is a new admission, not a duplicate of a report that no
// longer exists. Driven on the service directly, no sockets.
TEST(RebalanceServiceTest, ShrinkThenRegrowReadmitsTheDroppedShard) {
  Harness harness(/*base_shards=*/4);
  EpochService<SpaceSaving>& service = harness.service;
  const auto report_verdict = [&service](uint64_t shard) {
    WireReport report;
    report.shard_id = shard;
    report.epoch = 0;
    report.payload = EncodeSummary(ShardSummary(0, shard, 4));
    const std::optional<WireBatchVerdict> verdict = DecodeBatchVerdictFrame(
        service.HandleBatch(EncodeBatchFrame({{report}})));
    return verdict.has_value() && verdict->codes.size() == 1
               ? verdict->codes[0]
               : ControlCode::kRejected;
  };
  const auto topology_verdict = [&service](uint64_t shard_count) {
    WireTopology topology;
    topology.effective_epoch = 0;
    topology.shard_count = shard_count;
    const std::optional<WireControl> control = DecodeControlFrame(
        service.HandleTopology(EncodeTopologyFrame(topology)));
    return control.has_value() ? control->code : ControlCode::kRejected;
  };

  for (uint64_t shard = 0; shard < 4; ++shard) {
    ASSERT_EQ(report_verdict(shard), ControlCode::kAccepted);
  }
  ASSERT_EQ(topology_verdict(2), ControlCode::kAccepted);
  ASSERT_EQ(service.pending_reports(), 2u);
  ASSERT_EQ(topology_verdict(4), ControlCode::kAccepted);

  EXPECT_EQ(report_verdict(3), ControlCode::kAccepted);
  EXPECT_EQ(service.pending_reports(), 3u);
  EXPECT_EQ(service.stats().reports_duplicate, 0u);

  ASSERT_TRUE(service.SealEpoch(0, 0));
  const std::vector<EpochMeta>& metas = harness.store.Metas(kStream);
  ASSERT_EQ(metas.size(), 1u);
  EXPECT_EQ(metas[0].shards_total, 4u);
  EXPECT_EQ(metas[0].shards_received, 3u);
}

TEST(RebalanceServiceTest, SealedEpochsRefuseRedenomination) {
  Harness harness(/*base_shards=*/2);
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  uint64_t offered = 0;
  for (uint64_t shard = 0; shard < 2; ++shard) {
    const SpaceSaving summary = ShardSummary(0, shard, 2);
    offered += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = 0;
    report.payload = EncodeSummary(summary);
    ASSERT_EQ(client.SendBatch({report}, FastPolicy()).status,
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  ASSERT_TRUE(harness.service.SealEpoch(0, offered));

  // Epoch 0 is history; its coverage cannot be rewritten.
  WireTopology topology;
  topology.effective_epoch = 0;
  topology.shard_count = 4;
  const auto verdict = SendTopology(client, EncodeTopologyFrame(topology));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ControlCode::kRejected);
  EXPECT_EQ(harness.service.stats().topology_rejected, 1u);

  // A malformed TOP1 frame (flipped byte) is rejected, not crashed on.
  std::vector<uint8_t> corrupt = EncodeTopologyFrame(topology);
  corrupt[corrupt.size() / 2] ^= 0xff;
  const auto bad = SendTopology(client, corrupt);
  // The server either rejects at routing (unknown frame -> control
  // reject) or at decode; both answer with a non-accepted control.
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->code, ControlCode::kAccepted);
  harness.server.Stop();
}

TEST(RebalanceServiceTest, TopologyChangesLandBetweenReportsOfOneStream) {
  // The full arc again, but interleaved on the wire: each step's TOP1
  // frame is sent right before the first report of its effective epoch,
  // over the *same* connection — ordering within one TCP stream is what
  // production relies on.
  constexpr uint64_t kEpochs = 6;
  Harness harness(/*base_shards=*/2);
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  RebalanceController controller(2);
  controller.AddStep(2, 4);
  controller.AddStep(4, 2);

  std::vector<uint64_t> offered(kEpochs, 0);
  size_t next_step = 0;
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (next_step < controller.steps().size() &&
        controller.steps()[next_step].effective_epoch == epoch) {
      const auto verdict =
          SendTopology(client, controller.EncodeStep(next_step));
      ASSERT_TRUE(verdict.has_value());
      EXPECT_EQ(verdict->code, ControlCode::kAccepted);
      ++next_step;
    }
    const uint64_t shards = controller.ShardsForEpoch(epoch);
    ASSERT_EQ(harness.service.shards_for_epoch(epoch), shards);
    for (uint64_t shard = 0; shard < shards; ++shard) {
      const SpaceSaving summary = ShardSummary(epoch, shard, shards);
      offered[epoch] += summary.n();
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      ASSERT_EQ(client.SendBatch({report}, FastPolicy()).status,
                SendStatus::kAccepted);
    }
    harness.server.Drain();
    ASSERT_TRUE(harness.service.SealEpoch(epoch, offered[epoch]));
  }
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    WireQuery query;
    query.stream = kStream;
    query.t1 = epoch;
    query.t2 = epoch;
    const auto answer = client.Query(query);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->n_received, offered[epoch]) << "epoch " << epoch;
    EXPECT_EQ(answer->lost_mass, 0u) << "epoch " << epoch;
  }
  EXPECT_EQ(harness.service.stats().topology_accepted, 2u);
  harness.server.Stop();
}

// A handler that never opted into topology management: the base-class
// default must hard-reject TOP1 frames without crashing the server.
class TopologyBlindHandler : public FrameHandler {
 public:
  std::vector<uint8_t> HandleBatch(const std::vector<uint8_t>&) override {
    WireBatchVerdict verdict;
    verdict.batch_code = ControlCode::kRejected;
    return EncodeBatchVerdictFrame(verdict);
  }
  std::vector<uint8_t> HandleQuery(const std::vector<uint8_t>&) override {
    WireAnswer answer;
    answer.status = AnswerStatus::kUnknownRange;
    return EncodeAnswerFrame(answer);
  }
};

TEST(RebalanceServiceTest, DefaultHandlerRejectsTopologyFrames) {
  TopologyBlindHandler handler;
  IngestServer server(&handler, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());
  ASSERT_TRUE(client.connected());

  WireTopology topology;
  topology.effective_epoch = 5;
  topology.shard_count = 8;
  const auto verdict = SendTopology(client, EncodeTopologyFrame(topology));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->code, ControlCode::kRejected);
  // The default still echoes the announcement identity for the caller's
  // correlation.
  EXPECT_EQ(verdict->shard_id, 8u);
  EXPECT_EQ(verdict->epoch, 5u);
  server.Stop();
}

}  // namespace
}  // namespace mergeable
