// End-to-end ingest server tests over real loopback sockets: report
// round trips, dedup, malformed/hostile input handling, and the
// headline equivalence property — an epoch ingested through the socket
// path seals byte-identically to the same reports aggregated through
// the in-process SimulatedTransport coordinator path (zero shedding).

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/chaos.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr uint64_t kShards = 6;
constexpr double kEpsilon = 0.02;

SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, int items = 200) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(1000 * epoch + shard);
  for (int i = 0; i < items; ++i) {
    summary.Update(rng.Bernoulli(0.7) ? rng.UniformInt(15)
                                      : 200 + rng.UniformInt(50));
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
  SummaryStore<SpaceSaving> store;
  EpochService<SpaceSaving> service;
  IngestServer server;

  explicit Harness(ServerConfig config = {},
                   EpochServiceConfig service_config = DefaultService())
      : store(&storage, StoreOptions{.prefix = "store",
                                     .cache_capacity = 128,
                                     .epsilon = kEpsilon,
                                     .num_threads = 1}),
        service(&store, service_config),
        server(&service, config) {}

  static EpochServiceConfig DefaultService() {
    EpochServiceConfig config;
    config.stream = kStream;
    config.shards_per_epoch = kShards;
    return config;
  }
};

TEST(ServerTest, BindsEphemeralPortAndStopsCleanly) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  EXPECT_GT(harness.server.port(), 0);
  harness.server.Stop();
  // Stop is idempotent, and a stopped server can be queried for stats.
  harness.server.Stop();
  EXPECT_EQ(harness.server.stats().connections_accepted, 0u);
}

TEST(ServerTest, ReportRoundTripSealsAndAnswersQueries) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  uint64_t offered = 0;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    const SpaceSaving summary = ShardSummary(/*epoch=*/0, shard);
    offered += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = 0;
    report.payload = EncodeSummary(summary);
    EXPECT_EQ(client.SendReport(report, FastPolicy()),
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  EXPECT_EQ(harness.service.pending_reports(), kShards);
  ASSERT_TRUE(harness.service.SealEpoch(0, offered));

  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  const auto answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, AnswerStatus::kOk);
  EXPECT_FALSE(answer->partial);
  EXPECT_EQ(answer->n_received, offered);
  EXPECT_EQ(answer->lost_mass, 0u);  // Nothing shed: exact coverage.
  EXPECT_DOUBLE_EQ(answer->coverage, 1.0);
  const auto tagged = DecodeTaggedPayload(answer->payload);
  ASSERT_TRUE(tagged.has_value());
  EXPECT_FALSE(tagged->payload.empty());
}

TEST(ServerTest, DuplicateReportsAreAbsorbedOnce) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  const SpaceSaving summary = ShardSummary(0, 0);
  WireReport report;
  report.shard_id = 0;
  report.epoch = 0;
  report.payload = EncodeSummary(summary);
  EXPECT_EQ(client.SendReport(report, FastPolicy()), SendStatus::kAccepted);
  // The storm: verbatim resends all come back kDuplicate (mapped to
  // accepted — the report IS recorded) and record nothing twice.
  for (int resend = 0; resend < 50; ++resend) {
    EXPECT_EQ(client.SendReport(report, FastPolicy()),
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  EXPECT_EQ(harness.service.pending_reports(), 1u);
  EXPECT_EQ(harness.service.stats().reports_accepted, 1u);
  EXPECT_EQ(harness.service.stats().reports_duplicate, 50u);
  // The storm held no state beyond the one pending report, and the
  // sealed epoch counts it once.
  ASSERT_TRUE(harness.service.SealEpoch(0, summary.n()));
  EXPECT_EQ(harness.service.pending_reports(), 0u);
  ASSERT_EQ(harness.store.Metas(kStream).size(), 1u);
  EXPECT_EQ(harness.store.Metas(kStream)[0].shards_received, 1u);
  EXPECT_EQ(harness.store.Metas(kStream)[0].n, summary.n());
}

TEST(ServerTest, DedupStateIsFreedAtSeal) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  for (uint64_t epoch = 0; epoch < 40; ++epoch) {
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(ShardSummary(epoch, shard, 20));
      ASSERT_EQ(client.SendReport(report, FastPolicy()),
                SendStatus::kAccepted);
    }
    harness.server.Drain();
    harness.service.SealEpoch(epoch, 0);
  }
  // 240 distinct keys were admitted; none outlives its epoch's seal.
  EXPECT_EQ(harness.service.pending_reports(), 0u);
  EXPECT_EQ(harness.service.stats().reports_accepted, 40 * kShards);
  // A resend for a sealed epoch is rejected by the epoch check, not
  // remembered as a duplicate.
  WireReport resend;
  resend.shard_id = 0;
  resend.epoch = 39;
  resend.payload = EncodeSummary(ShardSummary(39, 0, 20));
  EXPECT_EQ(client.SendReport(resend, FastPolicy()), SendStatus::kRejected);
  harness.server.Drain();
  EXPECT_EQ(harness.service.stats().reports_duplicate, 0u);
  EXPECT_EQ(harness.service.stats().reports_rejected, 1u);
  EXPECT_EQ(harness.service.pending_reports(), 0u);
}

TEST(ServerTest, MalformedAndMisroutedReportsAreRejected) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());

  // Corrupt payload: frame-valid but the summary does not decode.
  WireReport bad;
  bad.shard_id = 0;
  bad.epoch = 0;
  bad.payload = {0x01, 0x02, 0x03};
  EXPECT_EQ(client.SendReport(bad, FastPolicy()), SendStatus::kRejected);

  // Misrouted shard id (beyond the configured fleet).
  WireReport misrouted;
  misrouted.shard_id = kShards + 3;
  misrouted.epoch = 0;
  misrouted.payload = EncodeSummary(ShardSummary(0, 0));
  EXPECT_EQ(client.SendReport(misrouted, FastPolicy()),
            SendStatus::kRejected);

  // A frame with an unknown magic is NACKed kRejected by the loop
  // thread without ever reaching a worker.
  ASSERT_TRUE(client.SendFrame({0xde, 0xad, 0xbe, 0xef, 0x00}));
  const auto response = client.ReadFrame();
  ASSERT_TRUE(response.has_value());
  const auto control = DecodeControlFrame(*response);
  ASSERT_TRUE(control.has_value());
  EXPECT_EQ(control->code, ControlCode::kRejected);

  harness.server.Drain();
  EXPECT_EQ(harness.service.stats().reports_rejected, 2u);
  EXPECT_EQ(harness.server.stats().unknown_frames, 1u);
}

TEST(ServerTest, StragglerForSealedEpochIsRejected) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  WireReport report;
  report.shard_id = 0;
  report.epoch = 0;
  report.payload = EncodeSummary(ShardSummary(0, 0));
  ASSERT_EQ(client.SendReport(report, FastPolicy()), SendStatus::kAccepted);
  harness.server.Drain();
  harness.service.SealEpoch(0, 0);
  // The epoch is sealed: a late report for it cannot be admitted (it
  // would change a served answer), so the verdict is terminal.
  WireReport straggler;
  straggler.shard_id = 1;
  straggler.epoch = 0;
  straggler.payload = EncodeSummary(ShardSummary(0, 1));
  EXPECT_EQ(client.SendReport(straggler, FastPolicy()),
            SendStatus::kRejected);
}

TEST(ServerTest, UnknownStreamAndUnsealedRangeAreRefused) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());
  WireQuery query;
  query.stream = 99;  // Not this service's stream.
  query.t1 = 0;
  query.t2 = 0;
  auto answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, AnswerStatus::kUnknownRange);
  query.stream = kStream;  // Right stream, nothing sealed yet.
  answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, AnswerStatus::kUnknownRange);
}

// ISSUE criterion (c): with zero shedding, the socket path's sealed
// epochs — and every range answer over them — are byte-identical to the
// SimulatedTransport coordinator path over the same reports.
TEST(ServerTest, ZeroSheddingMatchesSimulatedTransportByteForByte) {
  constexpr uint64_t kEpochs = 4;
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());

  // Reference path: healthy SimulatedTransport + durable coordinator,
  // sealed into its own store.
  MemStorage ref_backing;
  SummaryStore<SpaceSaving> ref_store(
      &ref_backing, StoreOptions{.prefix = "store",
                                 .cache_capacity = 128,
                                 .epsilon = kEpsilon,
                                 .num_threads = 1});

  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    uint64_t offered = 0;
    SimulatedTransport transport{FaultPlan{}};
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      const SpaceSaving summary = ShardSummary(epoch, shard);
      offered += summary.n();
      // Same encoded report bytes travel both paths.
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      ASSERT_EQ(client.SendReport(report, FastPolicy()),
                SendStatus::kAccepted);
      transport.Submit(shard, MakeReportFrame(summary, shard, epoch));
    }
    harness.server.Drain();
    ASSERT_TRUE(harness.service.SealEpoch(epoch, offered));

    MemStorage ref_wal;  // Fresh durable state per epoch.
    Coordinator<SpaceSaving> coordinator(epoch, FastPolicy(),
                                         MergeTopology::kLeftDeepChain);
    const auto result =
        coordinator.RunDurable(transport, kShards, &ref_wal);
    ASSERT_TRUE(result.summary.has_value());
    ASSERT_TRUE(ref_store.SealResult(kStream, epoch, result, offered));
  }

  // Every range answer agrees byte-for-byte, via the wire and not.
  for (uint64_t t1 = 0; t1 < kEpochs; ++t1) {
    for (uint64_t t2 = t1; t2 < kEpochs; ++t2) {
      WireQuery query;
      query.stream = kStream;
      query.t1 = t1;
      query.t2 = t2;
      const auto answer = client.Query(query);
      ASSERT_TRUE(answer.has_value());
      ASSERT_EQ(answer->status, AnswerStatus::kOk);
      const auto tagged = DecodeTaggedPayload(answer->payload);
      ASSERT_TRUE(tagged.has_value());
      const auto reference = ref_store.QueryRangePayload(kStream, t1, t2);
      ASSERT_TRUE(reference.has_value());
      EXPECT_EQ(tagged->payload, *reference->payload)
          << "range [" << t1 << ", " << t2 << "]";
      EXPECT_EQ(answer->lost_mass, reference->eps.lost_mass);
      EXPECT_DOUBLE_EQ(answer->full_stream_bound,
                       reference->eps.full_stream_bound);
    }
  }
}

TEST(ServerTest, DeadlineBoundedQueryReturnsWidenedPartialAnswer) {
  constexpr uint64_t kEpochs = 16;
  ServerConfig config;
  EpochServiceConfig service_config = Harness::DefaultService();
  // Slow-merge injection: every covering node costs 10 virtual ms.
  service_config.query_cost_per_node_ms = 10;
  Harness harness(config, service_config);
  ASSERT_TRUE(harness.server.Start());
  IngestClient client(harness.server.port());

  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    uint64_t offered = 0;
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      const SpaceSaving summary = ShardSummary(epoch, shard, 60);
      offered += summary.n();
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      ASSERT_EQ(client.SendReport(report, FastPolicy()),
                SendStatus::kAccepted);
    }
    harness.server.Drain();
    ASSERT_TRUE(harness.service.SealEpoch(epoch, offered));
  }

  // [1, 14] needs several covering nodes; a 10 ms budget affords one.
  WireQuery tight;
  tight.stream = kStream;
  tight.t1 = 1;
  tight.t2 = 14;
  tight.deadline_ms = 10;
  const auto partial = client.Query(tight);
  ASSERT_TRUE(partial.has_value());
  ASSERT_EQ(partial->status, AnswerStatus::kOk);
  EXPECT_TRUE(partial->partial);
  EXPECT_LT(partial->epochs_covered, 14u);

  WireQuery generous = tight;
  generous.deadline_ms = 10000;
  const auto full = client.Query(generous);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->partial);
  EXPECT_EQ(full->epochs_covered, 14u);

  // The widening is honest: the partial bound accounts at least the
  // mass of every epoch it skipped, on top of the full answer's bound.
  const std::vector<EpochMeta>& metas = harness.store.Metas(kStream);
  uint64_t skipped_mass = 0;
  for (uint64_t e = tight.t1 + partial->epochs_covered; e <= tight.t2; ++e) {
    skipped_mass += metas[e].n;
  }
  EXPECT_GT(skipped_mass, 0u);
  EXPECT_EQ(partial->lost_mass, full->lost_mass + skipped_mass);
  EXPECT_GE(partial->full_stream_bound, full->full_stream_bound);
  EXPECT_GT(partial->degraded_epochs, 0u);

  // The deadline respected both ways: unbounded deadline (0) answers in
  // full too.
  WireQuery unbounded = tight;
  unbounded.deadline_ms = 0;
  const auto free = client.Query(unbounded);
  ASSERT_TRUE(free.has_value());
  EXPECT_FALSE(free->partial);
}

TEST(ServerTest, PoisonedStreamIsDisconnected) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  StalledConnection hostile(harness.server.port());
  ASSERT_TRUE(hostile.valid());
  // Claim a 256 MiB frame: the server must hang up, not buffer.
  ASSERT_TRUE(hostile.SendPartial(256u << 20, 16));
  EXPECT_TRUE(hostile.PeerClosed());
  // Give the loop thread a beat to account the close, then check.
  for (int i = 0; i < 100 && harness.server.stats().poisoned_streams == 0;
       ++i) {
    StalledConnection probe(harness.server.port());  // Nudges the loop.
  }
  EXPECT_EQ(harness.server.stats().poisoned_streams, 1u);
}

TEST(ServerTest, StalledPartialFrameDoesNotBlockOtherClients) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  StalledConnection stalled(harness.server.port());
  ASSERT_TRUE(stalled.valid());
  // A legal frame, half-delivered, then silence: the connection is idle
  // from the server's perspective and must cost other clients nothing.
  ASSERT_TRUE(stalled.SendPartial(1000, 500));
  IngestClient client(harness.server.port());
  WireReport report;
  report.shard_id = 0;
  report.epoch = 0;
  report.payload = EncodeSummary(ShardSummary(0, 0));
  EXPECT_EQ(client.SendReport(report, FastPolicy()), SendStatus::kAccepted);
}

TEST(ServerTest, ConnectionChurnSurvives) {
  Harness harness;
  ASSERT_TRUE(harness.server.Start());
  for (uint64_t round = 0; round < 30; ++round) {
    IngestClient client(harness.server.port());
    ASSERT_TRUE(client.connected());
    WireReport report;
    report.shard_id = round % kShards;
    report.epoch = 100;  // One epoch, distinct shards + duplicates.
    report.payload =
        EncodeSummary(ShardSummary(100, round % kShards, 30));
    EXPECT_EQ(client.SendReport(report, FastPolicy()),
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  const ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.connections_accepted, 30u);
  EXPECT_EQ(harness.service.pending_reports(), kShards);
}

}  // namespace
}  // namespace mergeable
