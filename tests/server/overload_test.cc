// The chaos/overload harness against a live server — the ISSUE's three
// acceptance invariants:
//
//   (a) a 10x traffic spike never grows server memory past the
//       admission budget (hard cap + byte budget + peak counters);
//   (b) shed load is NACKed with retry-after, reports are shed before
//       queries, and the sealed epoch's epsilon report accounts every
//       shed report's mass *exactly*;
//   (c) recovery: after the spike drains, backpressure releases
//       (hysteresis) and shed reports retried under the client's
//       backoff policy land.
//
// Determinism: workers are paused while the spike arrives, so admission
// decisions depend only on arrival order on one connection — the first
// high_watermark reports are admitted, every later one is NACKed —
// independent of scheduling.
//
// Each report crosses the wire as a one-record BAT1 frame, and a
// batch verdict carries no (shard, epoch) address; which reports were
// shed is read off the sealed epoch instead — its payload must be the
// canonical fold of exactly the admitted shards.

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/chaos.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/summary_store.h"
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

SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, int items = 80) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(7000 + 100 * epoch + shard);
  for (int i = 0; i < items; ++i) summary.Update(rng.UniformInt(40));
  return summary;
}

std::vector<uint8_t> ReportFrame(const WireReport& report) {
  WireBatch batch;
  batch.reports.push_back(report);
  return EncodeBatchFrame(batch);
}

// The sealed payload an epoch must hold when exactly `shards` of it
// were admitted: their canonical fold, ascending, left-deep.
std::vector<uint8_t> FoldOf(uint64_t epoch,
                            const std::vector<uint64_t>& shards) {
  std::optional<SpaceSaving> fold;
  for (uint64_t shard : shards) {
    SpaceSaving summary = CanonicalForm(ShardSummary(epoch, shard));
    if (fold.has_value()) {
      CanonicalMergeInto(*fold, summary);
    } else {
      fold = std::move(summary);
    }
  }
  return EncodeSummary(*fold);
}

// The payload of the epoch-`epoch` answer, through the wire.
std::vector<uint8_t> SealedPayload(IngestClient& client, uint64_t epoch) {
  WireQuery query;
  query.stream = kStream;
  query.t1 = epoch;
  query.t2 = epoch;
  const auto answer = client.Query(query);
  EXPECT_TRUE(answer.has_value());
  if (!answer.has_value()) return {};
  const auto tagged = DecodeTaggedPayload(answer->payload);
  EXPECT_TRUE(tagged.has_value());
  return tagged.has_value() ? tagged->payload : std::vector<uint8_t>{};
}

BackoffPolicy FastPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 16;
  return policy;
}

struct OverloadHarness {
  static constexpr uint64_t kShards = 40;  // 10x the high watermark.
  static constexpr size_t kHighWatermark = 4;

  MemStorage storage;
  DurableStore<SpaceSaving> store;
  EpochService<SpaceSaving> service;
  IngestServer server;

  OverloadHarness()
      : store(&storage, TestStore()),
        service(&store, ServiceConfig()),
        server(&service, Config()) {}

  static EpochServiceConfig ServiceConfig() {
    EpochServiceConfig config;
    config.stream = kStream;
    config.shards_per_epoch = kShards;
    return config;
  }

  static ServerConfig Config() {
    ServerConfig config;
    config.workers = 1;  // One worker: FIFO response order is exact.
    config.admission.high_watermark = kHighWatermark;
    config.admission.low_watermark = 2;
    config.admission.hard_cap = 8;
    config.admission.byte_budget = 64 << 10;
    config.admission.retry_after_ms = 1;
    return config;
  }
};

// (a) + (b): the deterministic 10x spike. Every number below is exact,
// not a tolerance band.
TEST(OverloadTest, SpikeShedsDeterministicallyAndAccountsMassExactly) {
  OverloadHarness harness;
  ASSERT_TRUE(harness.server.Start());
  harness.server.PauseWorkers(true);

  IngestClient client(harness.server.port());
  ASSERT_TRUE(client.connected());

  // Offered load: one report per shard, 10x the high watermark, fired
  // without waiting for verdicts (the spike).
  std::vector<uint64_t> mass(OverloadHarness::kShards, 0);
  uint64_t offered_mass = 0;
  for (uint64_t shard = 0; shard < OverloadHarness::kShards; ++shard) {
    const SpaceSaving summary = ShardSummary(/*epoch=*/0, shard);
    mass[shard] = summary.n();
    offered_mass += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = 0;
    report.payload = EncodeSummary(summary);
    ASSERT_TRUE(client.SendFrame(ReportFrame(report)));
  }

  // With workers paused, the verdicts are fully determined: the first
  // high_watermark reports are admitted (their ACKs arrive only after
  // unpause), every later one is NACKed kRetryAfter immediately.
  uint64_t retry_after_verdicts = 0;
  for (size_t i = 0;
       i < OverloadHarness::kShards - OverloadHarness::kHighWatermark;
       ++i) {
    const auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value());
    const auto verdict = DecodeBatchVerdictFrame(*frame);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->batch_code, ControlCode::kRetryAfter);
    EXPECT_EQ(verdict->retry_after_ms, 1u);
    if (verdict->batch_code == ControlCode::kRetryAfter) {
      ++retry_after_verdicts;
    }
  }
  EXPECT_EQ(retry_after_verdicts,
            OverloadHarness::kShards - OverloadHarness::kHighWatermark);

  // (a) Memory stayed inside the admission budget at the spike's peak.
  const AdmissionStats admission = harness.server.admission_stats();
  EXPECT_EQ(admission.admitted_reports, OverloadHarness::kHighWatermark);
  EXPECT_EQ(admission.shed_reports,
            OverloadHarness::kShards - OverloadHarness::kHighWatermark);
  EXPECT_EQ(admission.backpressure_nacks, admission.shed_reports);
  EXPECT_LE(admission.peak_depth, harness.Config().admission.hard_cap);
  EXPECT_LE(admission.peak_bytes, harness.Config().admission.byte_budget);
  EXPECT_TRUE(harness.server.in_backpressure());

  // Release the spike: workers drain the admitted prefix; their ACKs
  // arrive now.
  harness.server.PauseWorkers(false);
  for (size_t i = 0; i < OverloadHarness::kHighWatermark; ++i) {
    const auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value());
    const auto verdict = DecodeBatchVerdictFrame(*frame);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->batch_code, ControlCode::kAccepted);
    EXPECT_EQ(verdict->codes,
              std::vector<ControlCode>{ControlCode::kAccepted});
  }
  harness.server.Drain();
  EXPECT_FALSE(harness.server.in_backpressure());  // Hysteresis released.

  // (b) Seal with the shed mass lost and verify the epsilon report is
  // exact: lost mass == the summed mass of precisely the NACKed shards.
  uint64_t admitted_mass = 0;
  std::vector<uint64_t> admitted_shards;
  for (uint64_t shard = 0; shard < OverloadHarness::kHighWatermark;
       ++shard) {
    admitted_mass += mass[shard];
    admitted_shards.push_back(shard);
  }
  ASSERT_TRUE(harness.service.SealEpoch(0, offered_mass));
  // The NACKs were exactly the shards past the admission cut: the
  // sealed epoch is the fold of shards [0, high_watermark) and nothing
  // else.
  EXPECT_EQ(SealedPayload(client, 0), FoldOf(0, admitted_shards));

  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  const auto answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->status, AnswerStatus::kOk);
  EXPECT_EQ(answer->n_received, admitted_mass);
  EXPECT_EQ(answer->lost_mass, offered_mass - admitted_mass);
  EXPECT_FALSE(answer->lost_mass_estimated);  // Known exactly, not modeled.
  EXPECT_EQ(answer->degraded_epochs, 1u);
  EXPECT_DOUBLE_EQ(answer->coverage,
                   static_cast<double>(OverloadHarness::kHighWatermark) /
                       static_cast<double>(OverloadHarness::kShards));
  EXPECT_DOUBLE_EQ(answer->received_bound,
                   kEpsilon * static_cast<double>(admitted_mass));
  EXPECT_DOUBLE_EQ(
      answer->full_stream_bound,
      answer->received_bound +
          static_cast<double>(offered_mass - admitted_mass));
}

// Reports are shed before queries: at the same queue pressure that
// NACKs a report, a query is still admitted.
TEST(OverloadTest, QueriesOutrankReportsUnderPressure) {
  OverloadHarness harness;
  ASSERT_TRUE(harness.server.Start());

  // Seal one epoch first so queries have something to answer.
  IngestClient client(harness.server.port());
  WireReport seed;
  seed.shard_id = 0;
  seed.epoch = 0;
  seed.payload = EncodeSummary(ShardSummary(0, 0));
  ASSERT_EQ(client.SendBatch({seed}, FastPolicy()).status,
            SendStatus::kAccepted);
  harness.server.Drain();
  const uint64_t sealed_mass = ShardSummary(0, 0).n();
  ASSERT_TRUE(harness.service.SealEpoch(0, sealed_mass));

  harness.server.PauseWorkers(true);
  // Fill to the high watermark with reports for the next epoch.
  for (uint64_t shard = 0; shard < OverloadHarness::kHighWatermark;
       ++shard) {
    WireReport report;
    report.shard_id = shard;
    report.epoch = 1;
    report.payload = EncodeSummary(ShardSummary(1, shard));
    ASSERT_TRUE(client.SendFrame(ReportFrame(report)));
  }
  // Pressure is at the watermark: one more report is NACKed...
  WireReport shed;
  shed.shard_id = 10;
  shed.epoch = 1;
  shed.payload = EncodeSummary(ShardSummary(1, 10));
  ASSERT_TRUE(client.SendFrame(ReportFrame(shed)));
  const auto nack_frame = client.ReadFrame();
  ASSERT_TRUE(nack_frame.has_value());
  const auto nack = DecodeBatchVerdictFrame(*nack_frame);
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ(nack->batch_code, ControlCode::kRetryAfter);

  // ...while a query at the same instant is admitted and (after the
  // workers resume) answered.
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  ASSERT_TRUE(client.SendFrame(EncodeQueryFrame(query)));
  harness.server.PauseWorkers(false);
  // Responses drain in admission order: the four report ACKs, then the
  // query answer.
  for (uint64_t shard = 0; shard < OverloadHarness::kHighWatermark;
       ++shard) {
    const auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(PeekFrameKind(*frame), FrameKind::kBatchVerdict);
    const auto verdict = DecodeBatchVerdictFrame(*frame);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->codes,
              std::vector<ControlCode>{ControlCode::kAccepted});
  }
  const auto answer_frame = client.ReadFrame();
  ASSERT_TRUE(answer_frame.has_value());
  ASSERT_EQ(PeekFrameKind(*answer_frame), FrameKind::kAnswer);
  const auto answer = DecodeAnswerFrame(*answer_frame);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, AnswerStatus::kOk);
  EXPECT_EQ(answer->n_received, sealed_mass);

  // The answered query proves admission let it past the same pressure
  // that NACKed the report.
  const AdmissionStats pressured = harness.server.admission_stats();
  EXPECT_EQ(pressured.admitted_queries, 1u);
  EXPECT_EQ(pressured.shed_queries, 0u);
  EXPECT_EQ(pressured.shed_reports, 1u);

  // The NACKed report was shard 10's: epoch 1 seals as the fold of the
  // four admitted shards, without it.
  uint64_t offered_mass = ShardSummary(1, 10).n();
  for (uint64_t shard = 0; shard < OverloadHarness::kHighWatermark;
       ++shard) {
    offered_mass += ShardSummary(1, shard).n();
  }
  harness.server.Drain();
  ASSERT_TRUE(harness.service.SealEpoch(1, offered_mass));
  EXPECT_EQ(SealedPayload(client, 1), FoldOf(1, {0, 1, 2, 3}));
}

// (c) Recovery: a shed report retried under the client's backoff policy
// (honoring the server's retry-after hint) lands once pressure clears,
// and the re-sealed accounting shows zero loss.
TEST(OverloadTest, ShedReportsRecoverViaRetryAfter) {
  OverloadHarness harness;
  ASSERT_TRUE(harness.server.Start());
  harness.server.PauseWorkers(true);

  IngestClient blaster(harness.server.port());
  constexpr uint64_t kReports = 12;
  uint64_t offered_mass = 0;
  std::vector<WireReport> reports(kReports);
  for (uint64_t shard = 0; shard < kReports; ++shard) {
    const SpaceSaving summary = ShardSummary(0, shard);
    offered_mass += summary.n();
    reports[shard].shard_id = shard;
    reports[shard].epoch = 0;
    reports[shard].payload = EncodeSummary(summary);
    ASSERT_TRUE(blaster.SendFrame(ReportFrame(reports[shard])));
  }
  // Every frame meets admission while the workers are still paused, so
  // exactly the first high_watermark are admitted.
  ASSERT_TRUE(harness.server.WaitForStats(
      [](const ServerStats& stats) {
        return stats.frames_received >= kReports;
      },
      std::chrono::seconds(10)));
  // Spike over: the workers return, pressure drains, hysteresis
  // releases, and the client resends every report under its policy —
  // no verdict names a shard, so the admitted ones are resent too.
  harness.server.PauseWorkers(false);
  harness.server.Drain();
  IngestClient retrier(harness.server.port());
  for (const WireReport& report : reports) {
    EXPECT_EQ(retrier.SendBatch({report}, FastPolicy()).status,
              SendStatus::kAccepted);
  }
  harness.server.Drain();
  EXPECT_EQ(harness.service.pending_reports(), kReports);
  // The admitted prefix's resends were deduped, not double-counted.
  EXPECT_EQ(retrier.stats().duplicates, OverloadHarness::kHighWatermark);
  EXPECT_EQ(harness.service.stats().reports_duplicate,
            OverloadHarness::kHighWatermark);
  ASSERT_TRUE(harness.service.SealEpoch(0, offered_mass));
  IngestClient querier(harness.server.port());
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  const auto answer = querier.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->lost_mass, 0u);  // Everything recovered.
  EXPECT_DOUBLE_EQ(answer->coverage, 12.0 / 40.0);
  std::vector<uint64_t> all_shards(kReports);
  for (uint64_t shard = 0; shard < kReports; ++shard) {
    all_shards[shard] = shard;
  }
  EXPECT_EQ(SealedPayload(querier, 0), FoldOf(0, all_shards));
}

// The scripted chaos driver: spikes, duplicate storms, churn and
// client-side corruption, all deterministic for the seed. Healthy
// admission (no shedding): every offered report must land and the
// sealed range must account zero lost mass.
TEST(OverloadTest, ChaosScriptWithoutSheddingLosesNothing) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochServiceConfig service_config;
  service_config.stream = kStream;
  service_config.shards_per_epoch = 8;
  EpochService<SpaceSaving> service(&store, service_config);
  ServerConfig config;  // Default watermarks: far above this load.
  IngestServer server(&service, config);
  ASSERT_TRUE(server.Start());

  ChaosScript script;
  script.seed = 17;
  script.faults.truncate_probability = 0.3;
  script.faults.bit_flip_probability = 0.2;
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    ChaosPhase phase;
    phase.epoch = epoch;
    phase.shards = 8;
    phase.items_per_shard = 50;
    phase.duplicate_sends = epoch % 2 == 0 ? 2 : 0;
    phase.churn = epoch % 3 == 0;
    script.phases.push_back(phase);
  }

  const ChaosOutcome outcome = DriveChaos<SpaceSaving>(
      server.port(), script, FastPolicy(),
      [](uint64_t epoch, uint64_t shard, uint64_t items) {
        return ShardSummary(epoch, shard, static_cast<int>(items));
      });
  EXPECT_EQ(outcome.reports_offered, 48u);
  EXPECT_EQ(outcome.reports_accepted, 48u);
  EXPECT_EQ(outcome.reports_lost, 0u);
  EXPECT_GT(outcome.corrupted_sent, 0u);  // The script did corrupt.
  EXPECT_GT(outcome.duplicate_verdicts, 0u);
  EXPECT_GT(outcome.reconnects, 0u);

  server.Drain();
  // Every offered report is pending exactly once, duplicates and
  // corrupted resends notwithstanding.
  EXPECT_EQ(service.pending_reports(), 48u);
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    ASSERT_TRUE(service.SealEpoch(epoch, 0));
  }
  EXPECT_EQ(service.pending_reports(), 0u);

  const auto range = store.QueryRangePayload(kStream, 0, 5);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->eps.lost_mass, 0u);
  EXPECT_DOUBLE_EQ(range->eps.coverage, 1.0);
  server.Stop();
}

// A slow consumer — a client that sends queries but never reads the
// answers — is disconnected once its outbound backlog crosses the cap,
// and the server's buffer accounting never exceeds it by more than one
// frame.
TEST(OverloadTest, SlowConsumerIsDisconnectedAtTheBufferCap) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochServiceConfig service_config;
  service_config.stream = kStream;
  service_config.shards_per_epoch = 2;
  EpochService<SpaceSaving> service(&store, service_config);
  ServerConfig config;
  config.max_conn_buffer_bytes = 16 << 10;  // Small cap: fast test.
  config.admission.high_watermark = 4096;
  config.admission.low_watermark = 1024;
  config.admission.hard_cap = 8192;
  IngestServer server(&service, config);
  ASSERT_TRUE(server.Start());

  // Seal one fat epoch so answers are large.
  IngestClient loader(server.port());
  SpaceSaving fat = SpaceSaving::ForEpsilon(0.001);
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) fat.Update(rng.UniformInt(5000));
  WireReport report;
  report.shard_id = 0;
  report.epoch = 0;
  report.payload = EncodeSummary(fat);
  ASSERT_EQ(loader.SendBatch({report}, FastPolicy()).status,
            SendStatus::kAccepted);
  server.Drain();
  ASSERT_TRUE(service.SealEpoch(0, fat.n()));

  // The slow consumer: fire queries, never read answers.
  IngestClient slow(server.port(), /*recv_timeout_ms=*/100);
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 0;
  const auto query_frame = EncodeQueryFrame(query);
  bool disconnected = false;
  for (int i = 0; i < 4000 && !disconnected; ++i) {
    if (!slow.SendFrame(query_frame)) disconnected = true;
    if (server.stats().slow_consumer_disconnects > 0) disconnected = true;
  }
  // Sends can keep succeeding into kernel buffers after the server
  // hangs up; the authoritative signal is the server's own counter,
  // which the loop thread bumps once the unread answers pass the cap.
  EXPECT_TRUE(server.WaitForStats(
      [](const ServerStats& stats) {
        return stats.slow_consumer_disconnects >= 1;
      },
      std::chrono::seconds(10)));
  server.Stop();
}

}  // namespace
}  // namespace mergeable
