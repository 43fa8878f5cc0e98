// Disk pressure and warm restart at the service layer:
//
//   - a durable-backend write failure flips the service into degraded
//     mode: queries keep serving what is durable, new reports are shed
//     with retry-after NACKs, and the failed seal retries in order once
//     the disk recovers — every shed byte accounted as lost mass;
//   - the ingest service restarts warm from disk: a fresh process over
//     the same directory resumes the epoch axis and answers history;
//   - the chaos harness scripts the whole arc (healthy -> disk full ->
//     recovered) against a live server over real files.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/chaos.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/random.h"
#include "../aggregate/storage_backends.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr uint64_t kShards = 4;
constexpr double kEpsilon = 0.02;

using DurableEpochService =
    EpochService<SpaceSaving, DurableStore<SpaceSaving>>;

SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, int items = 60) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(9000 + 100 * epoch + shard);
  for (int i = 0; i < items; ++i) summary.Update(rng.UniformInt(40));
  return summary;
}

SpaceSaving EmptySummary() { return SpaceSaving::ForEpsilon(kEpsilon); }

EpochServiceConfig ServiceConfig() {
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = kShards;
  config.storage_retry_after_ms = 7;
  return config;
}

DurableStoreOptions StoreOptionsFor() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  return options;
}

// One epoch's reports fed straight through the frame handler.
struct FeedResult {
  uint64_t accepted = 0;
  uint64_t offered_mass = 0;
  ControlCode last_code = ControlCode::kAccepted;
  uint64_t retry_after_ms = 0;
};

FeedResult FeedEpoch(DurableEpochService& service, uint64_t epoch) {
  FeedResult result;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    const SpaceSaving summary = ShardSummary(epoch, shard);
    result.offered_mass += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = epoch;
    report.payload = EncodeSummary(summary);
    const auto verdict = DecodeBatchVerdictFrame(
        service.HandleBatch(EncodeBatchFrame({{report}})));
    EXPECT_TRUE(verdict.has_value()) << "shard " << shard;
    if (!verdict.has_value()) continue;
    EXPECT_EQ(verdict->codes.size(), 1u) << "shard " << shard;
    if (verdict->codes.size() != 1) continue;
    result.last_code = verdict->codes[0];
    result.retry_after_ms = verdict->retry_after_ms;
    if (verdict->codes[0] == ControlCode::kAccepted) ++result.accepted;
  }
  return result;
}

std::optional<WireAnswer> QueryRange(DurableEpochService& service,
                                     uint64_t t1, uint64_t t2) {
  WireQuery query;
  query.stream = kStream;
  query.t1 = t1;
  query.t2 = t2;
  const auto frame = service.HandleQuery(EncodeQueryFrame(query));
  auto answer = DecodeAnswerFrame(frame);
  if (!answer.has_value() || answer->status != AnswerStatus::kOk) {
    return std::nullopt;
  }
  return answer;
}

// The full degraded-mode arc, driven deterministically through the
// frame handlers with a sticky ENOSPC on the durable backend.
TEST(DurableServiceTest, DiskFullShedsRetriesInOrderAndAccountsMass) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  DurableEpochService service(&store, ServiceConfig());
  service.set_empty_summary_factory(EmptySummary);

  // Healthy epoch 0.
  const FeedResult epoch0 = FeedEpoch(service, 0);
  ASSERT_EQ(epoch0.accepted, kShards);
  ASSERT_TRUE(service.SealEpoch(0, epoch0.offered_mass));
  EXPECT_FALSE(service.storage_degraded());

  // The disk fills. Epoch 1's reports were accepted before the seal
  // discovers the failure: their payloads are buffered, not lost.
  const FeedResult epoch1 = FeedEpoch(service, 1);
  ASSERT_EQ(epoch1.accepted, kShards);
  storage->set_disk_full(true);
  EXPECT_FALSE(service.SealEpoch(1, epoch1.offered_mass));
  EXPECT_TRUE(service.storage_degraded());
  EXPECT_EQ(service.buffered_seals(), 1u);
  EXPECT_EQ(service.stats().storage_seal_failures, 1u);

  // Degraded: epoch 2's reports are shed with the configured
  // retry-after hint, before dedup sees them.
  const FeedResult epoch2 = FeedEpoch(service, 2);
  EXPECT_EQ(epoch2.accepted, 0u);
  EXPECT_EQ(epoch2.last_code, ControlCode::kRetryAfter);
  EXPECT_EQ(epoch2.retry_after_ms, 7u);
  EXPECT_EQ(service.stats().reports_shed_storage, kShards);

  // Queries keep serving everything durable while degraded.
  const auto during = QueryRange(service, 0, 0);
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->lost_mass, 0u);

  // Sealing epoch 2 while still full: a zero-report placeholder joins
  // the buffer behind epoch 1; the store stays contiguous.
  EXPECT_FALSE(service.SealEpoch(2, epoch2.offered_mass));
  EXPECT_EQ(service.buffered_seals(), 2u);
  EXPECT_EQ(service.stats().epochs_sealed_empty, 1u);
  EXPECT_EQ(store.EpochCount(kStream), 1u);  // Only epoch 0 durable.

  // Space returns: the next seal drains the buffer in epoch order.
  storage->set_disk_full(false);
  const FeedResult epoch3 = FeedEpoch(service, 3);
  EXPECT_EQ(epoch3.accepted, 0u);  // Still degraded until a seal lands.
  ASSERT_TRUE(service.SealEpoch(3, epoch3.offered_mass));
  EXPECT_FALSE(service.storage_degraded());
  EXPECT_EQ(service.buffered_seals(), 0u);
  EXPECT_EQ(service.stats().storage_recoveries, 1u);
  EXPECT_EQ(store.EpochCount(kStream), 4u);

  // Accounting to the byte: epoch 1's buffered payload survived in
  // full; epochs 2 and 3 lost exactly what the shards offered.
  const auto answer = QueryRange(service, 0, 3);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->n_received, epoch0.offered_mass + epoch1.offered_mass);
  EXPECT_EQ(answer->lost_mass,
            epoch2.offered_mass + epoch3.offered_mass);
  EXPECT_FALSE(answer->lost_mass_estimated);
  const auto& metas = store.Metas(kStream);
  EXPECT_EQ(metas[1].n, epoch1.offered_mass);
  EXPECT_EQ(metas[2].n, 0u);
  EXPECT_EQ(metas[2].lost_mass, epoch2.offered_mass);
  EXPECT_EQ(metas[3].lost_mass, epoch3.offered_mass);
}

// Buffer overflow under a long outage: overflowing epochs degrade to
// empty placeholders (O(1) memory each, mass lost to the byte) while
// the oldest buffered payloads are kept to seal first.
TEST(DurableServiceTest, SealBufferOverflowDegradesPayloadsToEmpty) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  EpochServiceConfig config = ServiceConfig();
  config.max_buffered_seals = 2;
  DurableEpochService service(&store, config);
  service.set_empty_summary_factory(EmptySummary);

  const FeedResult epoch0 = FeedEpoch(service, 0);
  ASSERT_TRUE(service.SealEpoch(0, epoch0.offered_mass));

  // Shards report ahead for epochs 1..4 while the service is healthy
  // (admission accepts any epoch >= next_epoch_), so every buffered
  // seal carries a real payload when the disk then fills.
  std::vector<FeedResult> fed;
  for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
    fed.push_back(FeedEpoch(service, epoch));
    ASSERT_EQ(fed.back().accepted, kShards);
  }
  storage->set_disk_full(true);
  for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
    EXPECT_FALSE(service.SealEpoch(epoch, fed[epoch - 1].offered_mass));
  }
  EXPECT_EQ(service.buffered_seals(), 4u);
  // Epochs beyond the cap (3 and 4) dropped their payloads.
  EXPECT_EQ(service.stats().seals_degraded_to_empty, 2u);

  storage->set_disk_full(false);
  const FeedResult epoch5 = FeedEpoch(service, 5);
  EXPECT_EQ(epoch5.accepted, 0u);  // Still degraded until a seal lands.
  ASSERT_TRUE(service.SealEpoch(5, epoch5.offered_mass));
  EXPECT_EQ(store.EpochCount(kStream), 6u);  // Contiguous 0..5.
  const auto& metas = store.Metas(kStream);
  // Epochs 1 and 2 stayed inside the cap: payloads intact.
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    EXPECT_EQ(metas[epoch].n, fed[epoch - 1].offered_mass);
    EXPECT_EQ(metas[epoch].lost_mass, 0u);
  }
  // Epochs 3 and 4 degraded to empty: their whole mass is lost.
  for (uint64_t epoch = 3; epoch <= 4; ++epoch) {
    EXPECT_EQ(metas[epoch].n, 0u);
    EXPECT_EQ(metas[epoch].lost_mass, fed[epoch - 1].offered_mass);
  }
  // Every epoch's books balance: n + lost == offered, always.
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const uint64_t offered =
        epoch <= 4 ? fed[epoch - 1].offered_mass : epoch5.offered_mass;
    EXPECT_EQ(metas[epoch].n + metas[epoch].lost_mass, offered)
        << "epoch " << epoch;
  }
}

// Without the factory, a zero-report epoch on a fresh stream is simply
// skipped — the pre-durability behavior.
TEST(DurableServiceTest, ZeroReportEpochSkippedWithoutFactory) {
  BackendFactory factory(BackendKind::kMem);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  DurableEpochService service(&store, ServiceConfig());
  EXPECT_FALSE(service.SealEpoch(0, 0));
  EXPECT_FALSE(store.HasStream(kStream));
  EXPECT_EQ(service.next_epoch(), 1u);
}

// With the factory, a zero-report epoch after sealed history closes the
// gap that used to wedge the store's contiguous epoch axis.
TEST(DurableServiceTest, ZeroReportEpochSealsPlaceholderAfterHistory) {
  BackendFactory factory(BackendKind::kMem);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  DurableEpochService service(&store, ServiceConfig());
  service.set_empty_summary_factory(EmptySummary);

  const FeedResult epoch0 = FeedEpoch(service, 0);
  ASSERT_TRUE(service.SealEpoch(0, epoch0.offered_mass));
  // Nothing arrives for epoch 1 (offered mass is known from the spec).
  ASSERT_TRUE(service.SealEpoch(1, 500));
  EXPECT_EQ(service.stats().epochs_sealed_empty, 1u);
  const FeedResult epoch2 = FeedEpoch(service, 2);
  ASSERT_TRUE(service.SealEpoch(2, epoch2.offered_mass));  // No wedge.
  EXPECT_EQ(store.EpochCount(kStream), 3u);
  const auto answer = QueryRange(service, 0, 2);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->lost_mass, 500u);
}

// Warm restart: a fresh service over a reopened store resumes the
// epoch axis, rejects stale reports, and serves history.
TEST(DurableServiceTest, WarmRestartResumesEpochAxis) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  std::vector<uint64_t> masses;
  {
    DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
    DurableEpochService service(&store, ServiceConfig());
    for (uint64_t epoch = 0; epoch < 3; ++epoch) {
      const FeedResult fed = FeedEpoch(service, epoch);
      ASSERT_EQ(fed.accepted, kShards);
      masses.push_back(fed.offered_mass);
      ASSERT_TRUE(service.SealEpoch(epoch, fed.offered_mass));
    }
  }  // Process dies.

  storage->Restart();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  const OpenReport report = store.Open();
  EXPECT_EQ(report.epochs, 3u);
  DurableEpochService service(&store, ServiceConfig());
  EXPECT_EQ(service.next_epoch(), 3u);  // Resumed, not rewound.

  // A straggler for a pre-restart epoch is rejected, not re-admitted.
  WireReport stale;
  stale.shard_id = 0;
  stale.epoch = 1;
  stale.payload = EncodeSummary(ShardSummary(1, 0));
  const auto verdict = DecodeBatchVerdictFrame(
      service.HandleBatch(EncodeBatchFrame({{stale}})));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->codes,
            std::vector<ControlCode>{ControlCode::kRejected});

  // History answers; the next epoch seals on the resumed axis.
  const auto history = QueryRange(service, 0, 2);
  ASSERT_TRUE(history.has_value());
  EXPECT_EQ(history->n_received, masses[0] + masses[1] + masses[2]);
  const FeedResult fed = FeedEpoch(service, 3);
  ASSERT_EQ(fed.accepted, kShards);
  ASSERT_TRUE(service.SealEpoch(3, fed.offered_mass));
  EXPECT_EQ(store.EpochCount(kStream), 4u);
}

// The scripted chaos arc against a LIVE server over real files:
// healthy traffic, a disk-full window (reports shed via retry-after
// until the client's budget exhausts), recovery — lost mass accounted
// to the byte, queries served throughout.
TEST(DurableServiceTest, ChaosDiskFullArcOverLiveServer) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), StoreOptionsFor());
  DurableEpochService service(&store, ServiceConfig());
  service.set_empty_summary_factory(EmptySummary);
  ServerConfig server_config;
  server_config.workers = 1;
  IngestServer server(&service, server_config);
  ASSERT_TRUE(server.Start());

  BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 4;

  const auto set_disk_full = [&storage](bool full) {
    storage->set_disk_full(full);
  };
  const auto fill = [](uint64_t epoch, uint64_t shard, uint64_t items) {
    return ShardSummary(epoch, shard, static_cast<int>(items));
  };

  // Phase 1: healthy epoch 0, sealed clean.
  ChaosScript healthy;
  healthy.phases.push_back(ChaosPhase{.epoch = 0, .shards = kShards});
  const ChaosOutcome out0 =
      DriveChaos<SpaceSaving>(server.port(), healthy, policy, fill,
                              set_disk_full);
  ASSERT_EQ(out0.reports_accepted, kShards);
  ASSERT_TRUE(service.SealEpoch(0, out0.offered_mass));

  // Phase 2: the disk fills mid-epoch-1. Reports for epoch 1 landed
  // before the failed seal flags degradation.
  ChaosScript filling;
  filling.phases.push_back(
      ChaosPhase{.epoch = 1, .shards = kShards, .disk_full = true});
  const ChaosOutcome out1 = DriveChaos<SpaceSaving>(
      server.port(), filling, policy, fill, set_disk_full);
  ASSERT_EQ(out1.reports_accepted, kShards);
  EXPECT_EQ(out1.disk_full_phases, 1u);
  EXPECT_FALSE(service.SealEpoch(1, out1.offered_mass));
  EXPECT_TRUE(service.storage_degraded());

  // Phase 3: still full — every epoch-2 report is shed with
  // retry-after until the client's bounded budget exhausts.
  ChaosScript full;
  full.phases.push_back(
      ChaosPhase{.epoch = 2, .shards = kShards, .disk_full = true});
  const ChaosOutcome out2 = DriveChaos<SpaceSaving>(
      server.port(), full, policy, fill, set_disk_full);
  EXPECT_EQ(out2.reports_accepted, 0u);
  EXPECT_EQ(out2.reports_lost, kShards);
  EXPECT_GT(out2.retry_after_nacks, 0u);
  EXPECT_FALSE(service.SealEpoch(2, out2.offered_mass));

  // Phase 4: space returns. The service is still degraded until a seal
  // lands, so the recovery seal (epoch 3, nothing offered during the
  // outage tail) drains the buffer — epoch 1's payload intact, epoch
  // 2's placeholder, epoch 3's placeholder — in order.
  set_disk_full(false);
  ASSERT_TRUE(service.SealEpoch(3, 0));
  EXPECT_FALSE(service.storage_degraded());
  EXPECT_EQ(service.stats().storage_recoveries, 1u);
  EXPECT_EQ(store.EpochCount(kStream), 4u);

  // Healthy again: epoch 4 traffic is admitted and sealed clean.
  ChaosScript recovered;
  recovered.phases.push_back(ChaosPhase{.epoch = 4, .shards = kShards});
  const ChaosOutcome out4 = DriveChaos<SpaceSaving>(
      server.port(), recovered, policy, fill, set_disk_full);
  ASSERT_EQ(out4.reports_accepted, kShards);
  ASSERT_TRUE(service.SealEpoch(4, out4.offered_mass));
  EXPECT_EQ(store.EpochCount(kStream), 5u);

  IngestClient client(server.port());
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = 4;
  const auto answer = client.Query(query);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, AnswerStatus::kOk);
  EXPECT_EQ(answer->n_received,
            out0.accepted_mass + out1.accepted_mass + out4.accepted_mass);
  EXPECT_EQ(answer->lost_mass, out2.offered_mass);
  EXPECT_FALSE(answer->lost_mass_estimated);

  server.Stop();
}

}  // namespace
}  // namespace mergeable
