// EpochService seals the same bytes whatever order its reports arrived
// in. The subject sees shards in reverse and interleaved across two open
// epochs, a differing resend of an admitted report, and a mid-epoch TOP1
// announcement that drops already-admitted shards. The
// reference is the plainest service possible: one report per frame,
// ascending shard order, only the shards that survive. Sealed leaves,
// range answers and epoch metadata must match byte for byte.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr double kEpsilon = 0.05;

// `variant` changes the content, so a resend that differs from the
// first report shows which of the two the seal kept.
SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, uint64_t variant) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(10000 * variant + 100 * epoch + shard);
  for (int i = 0; i < 150; ++i) {
    summary.Update(rng.Bernoulli(0.6) ? rng.UniformInt(12)
                                      : 100 + rng.UniformInt(200));
  }
  return summary;
}

WireReport Report(uint64_t epoch, uint64_t shard, uint64_t variant = 0) {
  WireReport report;
  report.shard_id = shard;
  report.epoch = epoch;
  report.payload = EncodeSummary(ShardSummary(epoch, shard, variant));
  return report;
}

ControlCode SendReport(EpochService<SpaceSaving>& service,
                       const WireReport& report) {
  const std::optional<WireControl> control =
      DecodeControlFrame(service.HandleReport(EncodeReportFrame(report)));
  EXPECT_TRUE(control.has_value());
  return control.has_value() ? control->code : ControlCode::kRejected;
}

void SendBatchAllAccepted(EpochService<SpaceSaving>& service,
                          std::vector<WireReport> reports) {
  WireBatch batch;
  batch.reports = std::move(reports);
  const std::optional<WireBatchVerdict> verdict =
      DecodeBatchVerdictFrame(service.HandleBatch(EncodeBatchFrame(batch)));
  ASSERT_TRUE(verdict.has_value());
  ASSERT_EQ(verdict->codes.size(), batch.reports.size());
  for (const ControlCode code : verdict->codes) {
    EXPECT_EQ(code, ControlCode::kAccepted);
  }
}

EpochServiceConfig Config(uint64_t shards) {
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = shards;
  return config;
}

StoreOptions Options() {
  StoreOptions options;
  options.epsilon = kEpsilon;
  return options;
}

// Every sealed byte the store can serve for epochs [0, 1].
std::vector<std::vector<uint8_t>> Answers(SummaryStore<SpaceSaving>& store) {
  std::vector<std::vector<uint8_t>> answers;
  for (uint64_t t1 = 0; t1 < 2; ++t1) {
    for (uint64_t t2 = t1; t2 < 2; ++t2) {
      const auto range = store.QueryRangePayload(kStream, t1, t2);
      EXPECT_TRUE(range.has_value());
      if (range.has_value()) answers.push_back(*range->payload);
    }
  }
  return answers;
}

TEST(SealOrderTest, OutOfOrderArrivalSealsLikeAscendingSingleReports) {
  // Mass the shards offered, identical for both services so lost-mass
  // accounting matches too.
  constexpr uint64_t kOffered = 2000;

  MemStorage subject_storage;
  SummaryStore<SpaceSaving> subject_store(&subject_storage, Options());
  EpochService<SpaceSaving> subject(&subject_store, Config(6));

  // Reverse and interleaved: epoch 1 opens before epoch 0 is complete.
  SendBatchAllAccepted(subject, {Report(0, 5), Report(1, 4), Report(0, 3)});
  EXPECT_EQ(SendReport(subject, Report(1, 2)), ControlCode::kAccepted);
  EXPECT_EQ(SendReport(subject, Report(0, 1)), ControlCode::kAccepted);
  SendBatchAllAccepted(subject, {Report(0, 4), Report(1, 0), Report(0, 0),
                                 Report(1, 5)});
  EXPECT_EQ(subject.pending_reports(), 9u);

  // (0, 3) is still pending, so a resend is a duplicate however long ago
  // it was admitted, and it replaces nothing: the first report wins.
  EXPECT_EQ(SendReport(subject, Report(0, 3, /*variant=*/1)),
            ControlCode::kDuplicate);
  EXPECT_EQ(subject.pending_reports(), 9u);

  // Mid-epoch scale-in to 5 shards from epoch 0: shard 5's reports in
  // both open epochs are dropped.
  WireTopology topology;
  topology.effective_epoch = 0;
  topology.shard_count = 5;
  const std::optional<WireControl> ack =
      DecodeControlFrame(subject.HandleTopology(EncodeTopologyFrame(topology)));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->code, ControlCode::kAccepted);
  EXPECT_EQ(subject.stats().reports_dropped_topology, 2u);
  EXPECT_EQ(subject.pending_reports(), 7u);

  // The stragglers, still in reverse.
  SendBatchAllAccepted(subject, {Report(1, 3), Report(0, 2), Report(1, 1)});
  EXPECT_EQ(subject.pending_reports(), 10u);
  ASSERT_TRUE(subject.SealEpoch(0, kOffered));
  EXPECT_EQ(subject.pending_reports(), 5u);
  ASSERT_TRUE(subject.SealEpoch(1, kOffered));
  EXPECT_EQ(subject.pending_reports(), 0u);

  MemStorage reference_storage;
  SummaryStore<SpaceSaving> reference_store(&reference_storage, Options());
  EpochService<SpaceSaving> reference(&reference_store, Config(5));
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    for (uint64_t shard = 0; shard < 5; ++shard) {
      EXPECT_EQ(SendReport(reference, Report(epoch, shard)),
                ControlCode::kAccepted);
    }
    ASSERT_TRUE(reference.SealEpoch(epoch, kOffered));
  }

  EXPECT_EQ(Answers(subject_store), Answers(reference_store));
  const std::vector<EpochMeta>& got = subject_store.Metas(kStream);
  const std::vector<EpochMeta>& want = reference_store.Metas(kStream);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].epoch, want[i].epoch);
    EXPECT_EQ(got[i].n, want[i].n);
    EXPECT_EQ(got[i].shards_total, want[i].shards_total);
    EXPECT_EQ(got[i].shards_received, want[i].shards_received);
    EXPECT_EQ(got[i].lost_mass, want[i].lost_mass);
    EXPECT_EQ(got[i].lost_mass_estimated, want[i].lost_mass_estimated);
  }
  EXPECT_EQ(got[0].shards_total, 5u);
  EXPECT_EQ(got[0].shards_received, 5u);
}

}  // namespace
}  // namespace mergeable
