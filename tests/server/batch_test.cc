// Batched ingest (BAT1) over real sockets: the headline equivalence —
// any batch size through any shard count seals byte-identical to the
// one-record-frame socket path and to the in-process SimulatedTransport
// coordinator path — plus batch-granular admission accounting,
// duplicate-batch replay, the dedup/rejected-payload interaction, and
// the zero-/max-report frame edges.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/server/sharded_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr uint64_t kShards = 6;
constexpr uint64_t kEpochs = 3;
constexpr double kEpsilon = 0.02;

SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, int items = 120) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(1000 * epoch + shard);
  for (int i = 0; i < items; ++i) {
    summary.Update(rng.Bernoulli(0.7) ? rng.UniformInt(15)
                                      : 200 + rng.UniformInt(50));
  }
  return summary;
}

WireReport MakeReport(uint64_t epoch, uint64_t shard) {
  WireReport report;
  report.shard_id = shard;
  report.epoch = epoch;
  report.payload = EncodeSummary(ShardSummary(epoch, shard));
  return report;
}

BackoffPolicy FastPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 8;
  return policy;
}

DurableStoreOptions TestStore() {
  DurableStoreOptions options;
  options.store.cache_capacity = 128;
  options.store.epsilon = kEpsilon;
  return options;
}

EpochServiceConfig TestService() {
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = kShards;
  return config;
}

// The reference answer bytes: every epoch aggregated through the
// in-process SimulatedTransport + coordinator path.
std::vector<std::vector<uint8_t>> ReferenceAnswers(MemStorage* backing) {
  DurableStore<SpaceSaving> store(backing, TestStore());
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    uint64_t offered = 0;
    SimulatedTransport transport{FaultPlan{}};
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      const SpaceSaving summary = ShardSummary(epoch, shard);
      offered += summary.n();
      transport.Submit(shard, MakeReportFrame(summary, shard, epoch));
    }
    Coordinator<SpaceSaving> coordinator(epoch, FastPolicy());
    const auto result = coordinator.Run(transport, kShards);
    EXPECT_TRUE(result.summary.has_value());
    EXPECT_TRUE(store.SealResult(kStream, epoch, result, offered));
  }
  std::vector<std::vector<uint8_t>> answers;
  for (uint64_t t1 = 0; t1 < kEpochs; ++t1) {
    for (uint64_t t2 = t1; t2 < kEpochs; ++t2) {
      const auto range = store.QueryRangePayload(kStream, t1, t2);
      EXPECT_TRUE(range.has_value());
      answers.push_back(*range->payload);
    }
  }
  return answers;
}

// Batched frames — every batch size, every shard count — seal
// byte-identical to the one-record-frame and SimulatedTransport paths.
TEST(BatchTest, BatchedIngestSealsByteIdenticalAcrossSizesAndShards) {
  MemStorage ref_backing;
  const std::vector<std::vector<uint8_t>> reference =
      ReferenceAnswers(&ref_backing);

  const size_t batch_sizes[] = {1, 3, kShards};
  const size_t shard_counts[] = {1, 2, 4};
  for (const size_t batch_size : batch_sizes) {
    for (const size_t shards : shard_counts) {
      SCOPED_TRACE("batch=" + std::to_string(batch_size) +
                   " shards=" + std::to_string(shards));
      MemStorage storage;
      DurableStore<SpaceSaving> store(&storage, TestStore());
      EpochService<SpaceSaving> service(&store, TestService());
      ShardedServerConfig config;
      config.shards = shards;
      ShardedIngestServer server(&service, config);
      ASSERT_TRUE(server.Start());
      EXPECT_EQ(server.shards(), shards);

      IngestClient client(server.port());
      ASSERT_TRUE(client.connected());
      BatchOptions options;
      options.max_reports = static_cast<uint32_t>(batch_size);
      client.set_batch_options(options);

      for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
        uint64_t offered = 0;
        uint64_t accepted = 0;
        for (uint64_t shard = 0; shard < kShards; ++shard) {
          offered += ShardSummary(epoch, shard).n();
          // The buffering path: flushes fire on max_reports and go out
          // through the scatter-gather send.
          const auto outcome =
              client.BufferReport(MakeReport(epoch, shard), FastPolicy());
          if (outcome.has_value()) {
            EXPECT_EQ(outcome->status, SendStatus::kAccepted);
            accepted += outcome->accepted;
          }
        }
        const BatchOutcome tail = client.Flush(FastPolicy());
        EXPECT_NE(tail.status, SendStatus::kExhausted);
        accepted += tail.accepted;
        EXPECT_EQ(accepted, kShards);
        server.Drain();
        ASSERT_TRUE(service.SealEpoch(epoch, offered));
      }

      size_t range_index = 0;
      for (uint64_t t1 = 0; t1 < kEpochs; ++t1) {
        for (uint64_t t2 = t1; t2 < kEpochs; ++t2) {
          WireQuery query;
          query.stream = kStream;
          query.t1 = t1;
          query.t2 = t2;
          const auto answer = client.Query(query);
          ASSERT_TRUE(answer.has_value());
          ASSERT_EQ(answer->status, AnswerStatus::kOk);
          EXPECT_EQ(answer->lost_mass, 0u);
          const auto tagged = DecodeTaggedPayload(answer->payload);
          ASSERT_TRUE(tagged.has_value());
          EXPECT_EQ(tagged->payload, reference[range_index])
              << "range [" << t1 << ", " << t2 << "]";
          ++range_index;
        }
      }
      server.Stop();
    }
  }
}

// A duplicate batch replayed after a lost verdict — the whole frame,
// verbatim — answers kDuplicate on every record and counts nothing
// twice, storm or not.
TEST(BatchTest, DuplicateBatchReplayDoesNotDoubleCount) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  IngestServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());

  WireBatch batch;
  uint64_t offered = 0;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    offered += ShardSummary(0, shard).n();
    batch.reports.push_back(MakeReport(0, shard));
  }
  const std::vector<uint8_t> frame = EncodeBatchFrame(batch);

  ASSERT_TRUE(client.SendFrame(frame));
  const auto first = client.ReadFrame();
  ASSERT_TRUE(first.has_value());
  const auto verdict = DecodeBatchVerdictFrame(*first);
  ASSERT_TRUE(verdict.has_value());
  ASSERT_EQ(verdict->batch_code, ControlCode::kAccepted);
  ASSERT_EQ(verdict->codes.size(), kShards);
  for (const ControlCode code : verdict->codes) {
    EXPECT_EQ(code, ControlCode::kAccepted);
  }

  // The storm: the client's verdict was "lost", so it resends the
  // identical frame, repeatedly.
  constexpr int kResends = 30;
  for (int resend = 0; resend < kResends; ++resend) {
    ASSERT_TRUE(client.SendFrame(frame));
    const auto replay = client.ReadFrame();
    ASSERT_TRUE(replay.has_value());
    const auto replay_verdict = DecodeBatchVerdictFrame(*replay);
    ASSERT_TRUE(replay_verdict.has_value());
    ASSERT_EQ(replay_verdict->batch_code, ControlCode::kAccepted);
    for (const ControlCode code : replay_verdict->codes) {
      EXPECT_EQ(code, ControlCode::kDuplicate);
    }
  }
  server.Drain();
  EXPECT_EQ(service.pending_reports(), kShards);
  EXPECT_EQ(service.stats().reports_accepted, kShards);
  EXPECT_EQ(service.stats().reports_duplicate,
            static_cast<uint64_t>(kResends) * kShards);

  ASSERT_TRUE(service.SealEpoch(0, offered));
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->eps.lost_mass, 0u);  // Nothing double- or un-counted.
  EXPECT_EQ(range->eps.n_received, offered);
  server.Stop();
}

// An open epoch holds the payload bytes of its admitted reports and
// nothing else: a resent batch whose records come back kDuplicate or
// kRejected keeps none of its bytes alive, even when one record of it
// is admitted, and a batch that spans two epochs leaves the later
// epoch holding only its own reports once the earlier one seals.
TEST(BatchTest, OpenEpochsHoldOnlyTheirAdmittedPayloadBytes) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  const auto verdicts = [&service](const WireBatch& batch) {
    const auto verdict =
        DecodeBatchVerdictFrame(service.HandleBatch(EncodeBatchFrame(batch)));
    EXPECT_TRUE(verdict.has_value());
    return verdict.has_value() ? verdict->codes : std::vector<ControlCode>{};
  };

  WireBatch first;
  size_t epoch0_bytes = 0;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    first.reports.push_back(MakeReport(0, shard));
    epoch0_bytes += first.reports.back().payload.size();
  }
  verdicts(first);
  EXPECT_EQ(service.pending_payload_bytes(), epoch0_bytes);

  // The whole burst again, a misrouted shard, and one new report.
  WireBatch resend = first;
  resend.reports.push_back(MakeReport(0, kShards));
  const WireReport next = MakeReport(1, 0);
  resend.reports.push_back(next);
  const std::vector<ControlCode> codes = verdicts(resend);
  ASSERT_EQ(codes.size(), kShards + 2);
  EXPECT_EQ(codes[kShards], ControlCode::kRejected);
  EXPECT_EQ(codes[kShards + 1], ControlCode::kAccepted);
  EXPECT_EQ(service.pending_payload_bytes(),
            epoch0_bytes + next.payload.size());

  ASSERT_TRUE(service.SealEpoch(0, 0));
  EXPECT_EQ(service.pending_payload_bytes(), next.payload.size());

  // Stragglers for the sealed epoch beside a new report for the open one.
  WireBatch late = first;
  const WireReport other = MakeReport(1, 1);
  late.reports.push_back(other);
  verdicts(late);
  EXPECT_EQ(service.pending_payload_bytes(),
            next.payload.size() + other.payload.size());
  EXPECT_EQ(service.stats().reports_accepted, kShards + 2);
}

// SendBatch resolves a duplicate storm transparently: the retry loop
// maps kDuplicate to accepted.
TEST(BatchTest, SendBatchTreatsReplayedRecordsAsAccepted) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  IngestServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());

  std::vector<WireReport> reports;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    reports.push_back(MakeReport(0, shard));
  }
  const BatchOutcome once = client.SendBatch(reports, FastPolicy());
  EXPECT_EQ(once.status, SendStatus::kAccepted);
  EXPECT_EQ(once.accepted, kShards);
  const BatchOutcome again = client.SendBatch(reports, FastPolicy());
  EXPECT_EQ(again.status, SendStatus::kAccepted);
  EXPECT_EQ(again.accepted, kShards);
  EXPECT_EQ(client.stats().duplicates, kShards);
  server.Drain();
  EXPECT_EQ(service.stats().reports_accepted, kShards);
  server.Stop();
}

// Admission is exact at batch granularity: depth limits are denominated
// in reports, a batch that does not fit whole is shed whole (never
// split), and a shed batch is NACKed with one whole-batch verdict whose
// mass is accounted to the byte at seal time.
TEST(BatchTest, ShedBatchesAccountMassExactlyAtBatchGranularity) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochServiceConfig service_config = TestService();
  service_config.shards_per_epoch = 16;
  EpochService<SpaceSaving> service(&store, service_config);
  ServerConfig config;
  config.workers = 1;
  // High watermark == hard cap: the cap's whole-batch check is what
  // bites first (backpressure only engages at the same threshold, and a
  // batch is hard-checked before the backpressure test).
  config.admission.high_watermark = 8;
  config.admission.low_watermark = 2;
  config.admission.hard_cap = 8;
  IngestServer server(&service, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkers(true);

  IngestClient client(server.port());
  auto make_batch = [](uint64_t first_shard, uint64_t count) {
    WireBatch batch;
    for (uint64_t i = 0; i < count; ++i) {
      batch.reports.push_back(MakeReport(0, first_shard + i));
    }
    return batch;
  };
  uint64_t offered_mass = 0;
  for (uint64_t shard = 0; shard < 12; ++shard) {
    offered_mass += ShardSummary(0, shard).n();
  }

  // Batch A (5 reports): fits the 8-report cap; admitted.
  ASSERT_TRUE(client.SendFrame(EncodeBatchFrame(make_batch(0, 5))));
  // Batch B (4 reports): 5 + 4 > 8 — shed WHOLE, immediately NACKed
  // with a whole-batch retry-after verdict.
  ASSERT_TRUE(client.SendFrame(EncodeBatchFrame(make_batch(5, 4))));
  const auto nack_frame = client.ReadFrame();
  ASSERT_TRUE(nack_frame.has_value());
  const auto nack = DecodeBatchVerdictFrame(*nack_frame);
  ASSERT_TRUE(nack.has_value());
  EXPECT_EQ(nack->batch_code, ControlCode::kRetryAfter);
  EXPECT_TRUE(nack->codes.empty());
  EXPECT_EQ(nack->retry_after_ms, config.admission.retry_after_ms);
  // Batch C (3 reports): 5 + 3 == 8 — still fits; admission never
  // split B to make room, but C's exact fit is admitted.
  ASSERT_TRUE(client.SendFrame(EncodeBatchFrame(make_batch(9, 3))));
  // Barrier: the loop thread has routed all three frames (C's verdict
  // is held by the paused workers, so there is no reply to wait on).
  ASSERT_TRUE(server.WaitForStats(
      [](const ServerStats& stats) { return stats.frames_received >= 3; },
      std::chrono::milliseconds(10000)));

  const AdmissionStats paused = server.admission_stats();
  EXPECT_EQ(paused.admitted_reports, 8u);
  EXPECT_EQ(paused.admitted_batches, 2u);
  EXPECT_EQ(paused.shed_reports, 4u);
  EXPECT_EQ(paused.shed_batches, 1u);
  EXPECT_LE(paused.peak_depth, config.admission.hard_cap);

  server.PauseWorkers(false);
  // The two admitted batches' verdicts arrive, all-accepted.
  for (int i = 0; i < 2; ++i) {
    const auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value());
    const auto verdict = DecodeBatchVerdictFrame(*frame);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->batch_code, ControlCode::kAccepted);
    for (const ControlCode code : verdict->codes) {
      EXPECT_EQ(code, ControlCode::kAccepted);
    }
  }
  server.Drain();
  EXPECT_EQ(service.pending_reports(), 8u);

  // Seal: exactly batch B's mass (shards 5..8) is lost, to the byte.
  uint64_t shed_mass = 0;
  for (uint64_t shard = 5; shard < 9; ++shard) {
    shed_mass += ShardSummary(0, shard).n();
  }
  ASSERT_TRUE(service.SealEpoch(0, offered_mass));
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->eps.lost_mass, shed_mass);
  EXPECT_EQ(range->eps.n_received, offered_mass - shed_mass);
  EXPECT_FALSE(range->eps.lost_mass_estimated);
  server.Stop();
}

// A batch shed at admission recovers through SendBatch's whole-batch
// retry loop once pressure clears.
TEST(BatchTest, ShedBatchRecoversViaWholeBatchRetry) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochServiceConfig service_config = TestService();
  service_config.shards_per_epoch = 16;
  EpochService<SpaceSaving> service(&store, service_config);
  ServerConfig config;
  config.workers = 1;
  config.admission.high_watermark = 4;
  config.admission.low_watermark = 2;
  config.admission.hard_cap = 8;
  config.admission.retry_after_ms = 1;
  IngestServer server(&service, config);
  ASSERT_TRUE(server.Start());
  server.PauseWorkers(true);

  // Fill to the watermark so the next batch is shed...
  IngestClient blaster(server.port());
  WireBatch filler;
  for (uint64_t shard = 0; shard < 4; ++shard) {
    filler.reports.push_back(MakeReport(0, shard));
  }
  ASSERT_TRUE(blaster.SendFrame(EncodeBatchFrame(filler)));
  // The filler must be admitted before the retrier's frame, which
  // arrives on another connection, is routed.
  ASSERT_TRUE(server.WaitForStats(
      [](const ServerStats& stats) { return stats.frames_received >= 1; },
      std::chrono::milliseconds(10000)));

  // ...then release pressure from another thread once the retrier's
  // first send has been shed, while SendBatch is in its NACK-backoff-
  // resend loop. The patient policy gives the retry loop ~150 ms of
  // budget so scheduler jitter cannot exhaust it.
  std::thread releaser([&server] {
    EXPECT_TRUE(server.WaitForStats(
        [](const ServerStats& stats) { return stats.frames_received >= 2; },
        std::chrono::milliseconds(10000)));
    server.PauseWorkers(false);
  });
  std::vector<WireReport> late;
  for (uint64_t shard = 4; shard < 8; ++shard) {
    late.push_back(MakeReport(0, shard));
  }
  BackoffPolicy patient;
  patient.max_attempts = 20;
  patient.initial_backoff_ms = 2;
  patient.multiplier = 1.5;
  patient.max_backoff_ms = 10;
  IngestClient retrier(server.port());
  const BatchOutcome outcome = retrier.SendBatch(late, patient);
  releaser.join();
  EXPECT_EQ(outcome.status, SendStatus::kAccepted);
  EXPECT_EQ(outcome.accepted, 4u);
  EXPECT_GE(retrier.stats().batch_shed_nacks, 1u);
  server.Drain();
  EXPECT_EQ(service.pending_reports(), 8u);
  server.Stop();
}

// A record whose payload fails summary validation must not poison its
// (shard, epoch) dedup key: the shard's corrected retry is accepted,
// not misread as a duplicate (which would silently lose its mass).
TEST(BatchTest, RejectedPayloadDoesNotPoisonDedupKey) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  IngestServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());

  WireReport corrupt = MakeReport(0, 0);
  corrupt.payload = {0xde, 0xad, 0xbe, 0xef};  // Not a SpaceSaving.

  // Single-report path.
  EXPECT_EQ(client.SendBatch({corrupt}, FastPolicy()).status,
            SendStatus::kRejected);
  EXPECT_EQ(client.SendBatch({MakeReport(0, 0)}, FastPolicy()).status,
            SendStatus::kAccepted);  // NOT kDuplicate.

  // Batched path: one bad record among good ones, then the correction.
  WireBatch mixed;
  WireReport bad = MakeReport(0, 1);
  bad.payload = {0x01, 0x02};
  mixed.reports.push_back(bad);
  mixed.reports.push_back(MakeReport(0, 2));
  ASSERT_TRUE(client.SendFrame(EncodeBatchFrame(mixed)));
  const auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  const auto verdict = DecodeBatchVerdictFrame(*frame);
  ASSERT_TRUE(verdict.has_value());
  ASSERT_EQ(verdict->codes.size(), 2u);
  EXPECT_EQ(verdict->codes[0], ControlCode::kRejected);
  EXPECT_EQ(verdict->codes[1], ControlCode::kAccepted);

  const BatchOutcome corrected =
      client.SendBatch({MakeReport(0, 1)}, FastPolicy());
  EXPECT_EQ(corrected.status, SendStatus::kAccepted);
  EXPECT_EQ(client.stats().duplicates, 0u);

  server.Drain();
  EXPECT_EQ(service.pending_reports(), 3u);
  EXPECT_EQ(service.stats().reports_rejected, 2u);
  server.Stop();
}

// Zero-report edge: an empty batch is a valid frame; the server answers
// it with an accepted verdict carrying zero codes and records nothing.
TEST(BatchTest, EmptyBatchRoundTripsWithZeroVerdicts) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  IngestServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());

  ASSERT_TRUE(client.SendFrame(EncodeBatchFrame(WireBatch{})));
  const auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  const auto verdict = DecodeBatchVerdictFrame(*frame);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->batch_code, ControlCode::kAccepted);
  EXPECT_TRUE(verdict->codes.empty());
  server.Drain();
  EXPECT_EQ(service.pending_reports(), 0u);
  // Client-side, SendBatch([]) short-circuits without touching the wire.
  const BatchOutcome empty = client.SendBatch({}, FastPolicy());
  EXPECT_EQ(empty.status, SendStatus::kAccepted);
  EXPECT_EQ(empty.accepted, 0u);
  server.Stop();
}

// Max-report edge and hostile counts, at the codec level.
TEST(BatchTest, MaxReportAndHostileCountEdges) {
  // Exactly kMaxBatchReports empty-payload records round-trip.
  WireBatch max_batch;
  max_batch.reports.resize(kMaxBatchReports);
  for (uint32_t i = 0; i < kMaxBatchReports; ++i) {
    max_batch.reports[i].shard_id = i;
    max_batch.reports[i].epoch = 1;
  }
  const auto max_frame = EncodeBatchFrame(max_batch);
  const auto decoded = DecodeBatchFrame(max_frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reports.size(), kMaxBatchReports);

  // Hostile frames are sealed by the one frame writer under the BAT1
  // magic, as the codec writes it.
  uint32_t batch_magic = 0;
  ASSERT_TRUE(ByteReader(EncodeBatchFrame({}).data(), 4).GetU32(&batch_magic));

  // One past the cap — hand-built with a VALID checksum, so the count
  // bound itself must reject it (not the corruption defense).
  FrameWriter over(batch_magic);
  over.PutU32(kMaxBatchReports + 1);
  for (uint32_t i = 0; i < kMaxBatchReports + 1; ++i) {
    over.PutU64(i);
    over.PutU64(1);
    over.PutBytes(std::vector<uint8_t>{});
  }
  EXPECT_FALSE(DecodeBatchFrame(std::move(over).Seal()).has_value());

  // Allocation bomb with a valid checksum: the count claims 10000
  // records but the body holds two. The bound check must refuse before
  // reserving anything.
  FrameWriter bomb(batch_magic);
  bomb.PutU32(10000);
  for (int i = 0; i < 2; ++i) {
    bomb.PutU64(static_cast<uint64_t>(i));
    bomb.PutU64(1);
    bomb.PutBytes(std::vector<uint8_t>{});
  }
  const std::vector<uint8_t> bomb_frame = std::move(bomb).Seal();
  EXPECT_FALSE(DecodeBatchFrame(bomb_frame).has_value());

  // The loop thread's peek charges the bomb for what the frame could
  // physically carry, not the lying header.
  uint32_t peeked = 0;
  ASSERT_TRUE(PeekBatchReportCount(bomb_frame, &peeked));
  EXPECT_LE(peeked, bomb_frame.size() / 20);
  EXPECT_LT(peeked, 10000u);
}

// Client-side flush triggers: report count, buffered bytes, deadline.
TEST(BatchTest, BufferReportFlushesOnEveryThreshold) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochService<SpaceSaving> service(&store, TestService());
  IngestServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start());
  IngestClient client(server.port());

  // Count trigger.
  BatchOptions by_count;
  by_count.max_reports = 3;
  client.set_batch_options(by_count);
  EXPECT_FALSE(client.BufferReport(MakeReport(0, 0), FastPolicy()));
  EXPECT_FALSE(client.BufferReport(MakeReport(0, 1), FastPolicy()));
  EXPECT_EQ(client.buffered_reports(), 2u);
  const auto count_flush = client.BufferReport(MakeReport(0, 2), FastPolicy());
  ASSERT_TRUE(count_flush.has_value());
  EXPECT_EQ(count_flush->accepted, 3u);
  EXPECT_EQ(client.buffered_reports(), 0u);

  // Byte trigger: one report's body already exceeds a tiny budget.
  BatchOptions by_bytes;
  by_bytes.max_bytes = 16;
  client.set_batch_options(by_bytes);
  const auto byte_flush = client.BufferReport(MakeReport(0, 3), FastPolicy());
  ASSERT_TRUE(byte_flush.has_value());
  EXPECT_EQ(byte_flush->accepted, 1u);

  // Deadline trigger: the report that finds the buffer stale flushes it.
  BatchOptions by_deadline;
  by_deadline.flush_deadline_ms = 5;
  client.set_batch_options(by_deadline);
  EXPECT_FALSE(client.BufferReport(MakeReport(0, 4), FastPolicy()));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto deadline_flush =
      client.BufferReport(MakeReport(0, 5), FastPolicy());
  ASSERT_TRUE(deadline_flush.has_value());
  EXPECT_EQ(deadline_flush->accepted, 2u);

  server.Drain();
  EXPECT_EQ(service.stats().reports_accepted, 6u);
  server.Stop();
}

// A FrameHandler that keeps every BAT1 frame it receives and answers
// each with the next scripted verdict; once the script runs out, every
// record is accepted.
class ScriptedBatchHandler : public FrameHandler {
 public:
  explicit ScriptedBatchHandler(std::vector<WireBatchVerdict> script)
      : script_(std::move(script)) {}

  std::vector<uint8_t> HandleBatch(
      const std::vector<uint8_t>& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(frame);
    if (next_ < script_.size()) {
      return EncodeBatchVerdictFrame(script_[next_++]);
    }
    WireBatchVerdict verdict;
    const std::optional<WireBatch> batch = DecodeBatchFrame(frame);
    if (!batch.has_value()) {
      verdict.batch_code = ControlCode::kRejected;
    } else {
      verdict.codes.assign(batch->reports.size(), ControlCode::kAccepted);
    }
    return EncodeBatchVerdictFrame(verdict);
  }
  std::vector<uint8_t> HandleQuery(const std::vector<uint8_t>&) override {
    return EncodeControlFrame({ControlCode::kRejected, 0, 0, 0});
  }

  std::vector<std::vector<uint8_t>> frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<WireBatchVerdict> script_;
  size_t next_ = 0;
  std::vector<std::vector<uint8_t>> frames_;
};

std::vector<WireReport> ReportsOfEpoch(uint64_t epoch, uint64_t count) {
  std::vector<WireReport> reports;
  for (uint64_t shard = 0; shard < count; ++shard) {
    reports.push_back(MakeReport(epoch, shard));
  }
  return reports;
}

// What a client puts on the wire is exactly EncodeBatchFrame of the
// reports, whether it buffered them and flushed or sent them at once.
TEST(BatchTest, ClientSendsExactlyTheEncodedBatch) {
  ScriptedBatchHandler handler({});
  IngestServer server(&handler, ServerConfig{});
  ASSERT_TRUE(server.Start());
  const std::vector<WireReport> reports = ReportsOfEpoch(0, 5);

  IngestClient buffering(server.port());
  for (const WireReport& report : reports) {
    EXPECT_FALSE(buffering.BufferReport(report, FastPolicy()).has_value());
  }
  EXPECT_EQ(buffering.buffered_reports(), reports.size());
  const BatchOutcome flushed = buffering.Flush(FastPolicy());
  EXPECT_EQ(flushed.status, SendStatus::kAccepted);
  EXPECT_EQ(flushed.accepted, reports.size());
  EXPECT_EQ(buffering.buffered_reports(), 0u);

  IngestClient direct(server.port());
  const BatchOutcome sent = direct.SendBatch(reports, FastPolicy());
  EXPECT_EQ(sent.status, SendStatus::kAccepted);
  EXPECT_EQ(sent.accepted, reports.size());

  const std::vector<uint8_t> expected = EncodeBatchFrame({reports});
  EXPECT_EQ(handler.frames(),
            (std::vector<std::vector<uint8_t>>{expected, expected}));
  server.Stop();
}

// A verdict that mixes per-record codes: the accepted and duplicate
// records are done, the rejected one is given up, and the resent frame
// is exactly EncodeBatchFrame of the retry-after records, in order.
TEST(BatchTest, PerRecordRetryAfterResendsExactlyThoseRecords) {
  const std::vector<WireReport> reports = ReportsOfEpoch(1, 5);
  const std::vector<uint8_t> retry_frame =
      EncodeBatchFrame({{reports[1], reports[3]}});
  for (const bool buffered : {true, false}) {
    SCOPED_TRACE(buffered ? "BufferReport + Flush" : "SendBatch");
    WireBatchVerdict mixed;
    mixed.retry_after_ms = 1;
    mixed.codes = {ControlCode::kAccepted, ControlCode::kRetryAfter,
                   ControlCode::kRejected, ControlCode::kRetryAfter,
                   ControlCode::kDuplicate};
    ScriptedBatchHandler handler({mixed});
    IngestServer server(&handler, ServerConfig{});
    ASSERT_TRUE(server.Start());
    IngestClient client(server.port());
    BatchOutcome outcome;
    if (buffered) {
      for (const WireReport& report : reports) {
        EXPECT_FALSE(client.BufferReport(report, FastPolicy()).has_value());
      }
      outcome = client.Flush(FastPolicy());
    } else {
      outcome = client.SendBatch(reports, FastPolicy());
    }
    EXPECT_EQ(outcome.status, SendStatus::kRejected);
    EXPECT_EQ(outcome.accepted, 4u);
    EXPECT_EQ(outcome.rejected, 1u);
    EXPECT_EQ(outcome.exhausted, 0u);
    EXPECT_EQ(client.stats().retry_after_nacks, 2u);
    EXPECT_EQ(client.stats().duplicates, 1u);
    EXPECT_EQ(client.stats().batches_sent, 2u);
    EXPECT_EQ(client.stats().batch_reports_sent, 7u);
    const std::vector<std::vector<uint8_t>> frames = handler.frames();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], EncodeBatchFrame({reports}));
    EXPECT_EQ(frames[1], retry_frame);
    server.Stop();
  }
}

// Sharded accept: connections spread across SO_REUSEPORT listeners, and
// the aggregated stats see every one exactly once.
TEST(BatchTest, ShardedAcceptCountsEveryConnectionOnce) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, TestStore());
  EpochServiceConfig service_config = TestService();
  service_config.shards_per_epoch = 32;
  EpochService<SpaceSaving> service(&store, service_config);
  ShardedServerConfig config;
  config.shards = 4;
  ShardedIngestServer server(&service, config);
  ASSERT_TRUE(server.Start());

  constexpr size_t kClients = 32;
  std::vector<std::unique_ptr<IngestClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<IngestClient>(server.port()));
    ASSERT_TRUE(clients.back()->connected());
    const BatchOutcome outcome = clients.back()->SendBatch(
        {MakeReport(0, static_cast<uint64_t>(i))}, FastPolicy());
    EXPECT_EQ(outcome.status, SendStatus::kAccepted);
  }
  server.Drain();
  EXPECT_EQ(service.pending_reports(), kClients);
  EXPECT_EQ(server.stats().connections_accepted, kClients);
  EXPECT_EQ(server.admission_stats().admitted_reports, kClients);
  EXPECT_EQ(server.admission_stats().admitted_batches, kClients);
  clients.clear();
  server.Stop();
}

}  // namespace
}  // namespace mergeable
