// A report the epoch's other summaries cannot merge with is rejected at
// admission. Count-Min merges only sketches of one shape and seed, and
// Misra-Gries only summaries of one capacity; both Merges abort
// otherwise, so a well-formed report of another shape that was admitted
// would abort the seal (and every later query that merges across the
// epoch). The reference shape is the empty-summary
// factory's summary, else the newest sealed epoch's when the service
// starts on a store that holds the stream, else the first report the
// service admitted. The elastic sketches merge across widths (the
// wider one folds down) but abort on another depth or seed, so their
// shape is depth and seed.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/durable_store.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;

CountMinSketch Sketch(int width, uint64_t seed, uint64_t first_item) {
  CountMinSketch sketch(4, width, seed);
  for (uint64_t item = first_item; item < first_item + 500; ++item) {
    sketch.Update(item % 97);
  }
  return sketch;
}

template <typename S>
WireReport Report(uint64_t epoch, uint64_t shard, const S& summary) {
  WireReport report;
  report.epoch = epoch;
  report.shard_id = shard;
  report.payload = EncodeSummary(summary);
  return report;
}

// The verdicts of one batch, in record order.
template <typename S>
std::vector<ControlCode> Send(EpochService<S>& service,
                              std::vector<WireReport> reports) {
  WireBatch batch;
  batch.reports = std::move(reports);
  const std::optional<WireBatchVerdict> verdict =
      DecodeBatchVerdictFrame(service.HandleBatch(EncodeBatchFrame(batch)));
  EXPECT_TRUE(verdict.has_value());
  if (!verdict.has_value()) return {};
  return verdict->codes;
}

EpochServiceConfig Config() {
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = 4;
  return config;
}

// The scenario that aborted the seal: two well-formed reports for one
// epoch, 4x2048 and 4x1024 with the same seed.
TEST(PayloadShapeTest, ReportOfAnotherWidthIsRejectedAndTheSealSucceeds) {
  MemStorage storage;
  DurableStore<CountMinSketch> store(&storage, DurableStoreOptions{});
  EpochService<CountMinSketch> service(&store, Config());
  const CountMinSketch wide = Sketch(2048, 9, 0);
  const CountMinSketch narrow = Sketch(1024, 9, 100);

  EXPECT_EQ(Send(service, {Report(0, 0, wide)}),
            std::vector<ControlCode>{ControlCode::kAccepted});
  EXPECT_EQ(Send(service, {Report(0, 1, narrow)}),
            std::vector<ControlCode>{ControlCode::kRejected});
  EXPECT_EQ(service.stats().reports_rejected, 1u);
  EXPECT_EQ(service.stats().reports_accepted, 1u);

  // The rejected report did not take its shard's slot: a retry of the
  // right shape is admitted.
  const CountMinSketch retry = Sketch(2048, 9, 200);
  EXPECT_EQ(Send(service, {Report(0, 1, retry)}),
            std::vector<ControlCode>{ControlCode::kAccepted});

  ASSERT_TRUE(service.SealEpoch(0, wide.n() + narrow.n()));
  CountMinSketch expected = wide;
  expected.Merge(retry);
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->payload, EncodeSummary(expected));
}

// With a factory installed, its summary is the reference from the first
// report on, and the seed counts as much as the shape.
TEST(PayloadShapeTest, FactorySummaryIsTheReference) {
  MemStorage storage;
  DurableStore<CountMinSketch> store(&storage, DurableStoreOptions{});
  EpochService<CountMinSketch> service(&store, Config());
  service.set_empty_summary_factory([] { return CountMinSketch(4, 1024, 9); });

  const std::vector<ControlCode> codes =
      Send(service, {Report(0, 0, Sketch(2048, 9, 0)),
                     Report(0, 1, Sketch(1024, 10, 0)),
                     Report(0, 2, Sketch(1024, 9, 0))});
  EXPECT_EQ(codes, (std::vector<ControlCode>{ControlCode::kRejected,
                                             ControlCode::kRejected,
                                             ControlCode::kAccepted}));
  EXPECT_EQ(service.stats().reports_rejected, 2u);
  ASSERT_TRUE(service.SealEpoch(0, 1500));
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->payload, EncodeSummary(Sketch(1024, 9, 0)));
}

// A service restarted without a factory takes the reference from the
// newest sealed epoch, so a report of another shape cannot seal beside
// the old epochs and abort the range queries that merge across them.
TEST(PayloadShapeTest, RestartedServiceTakesTheShapeOfTheSealedEpochs) {
  MemStorage storage;
  const CountMinSketch wide = Sketch(2048, 9, 0);
  {
    DurableStore<CountMinSketch> store(&storage, DurableStoreOptions{});
    EpochService<CountMinSketch> service(&store, Config());
    ASSERT_EQ(Send(service, {Report(0, 0, wide)}),
              std::vector<ControlCode>{ControlCode::kAccepted});
    ASSERT_TRUE(service.SealEpoch(0, wide.n()));
  }  // The process dies.

  DurableStore<CountMinSketch> store(&storage, DurableStoreOptions{});
  store.Open();
  EpochService<CountMinSketch> service(&store, Config());
  ASSERT_EQ(service.next_epoch(), 1u);
  const CountMinSketch later = Sketch(2048, 9, 300);
  EXPECT_EQ(Send(service, {Report(1, 0, Sketch(1024, 9, 0)),
                           Report(1, 1, later)}),
            (std::vector<ControlCode>{ControlCode::kRejected,
                                      ControlCode::kAccepted}));
  ASSERT_TRUE(service.SealEpoch(1, later.n()));
  CountMinSketch expected = wide;
  expected.Merge(later);
  const auto range = store.QueryRangePayload(kStream, 0, 1);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->payload, EncodeSummary(expected));
}

// Misra-Gries summaries of capacity 8 and 16, one shard each: the
// second is rejected, so the seal merges only summaries of one capacity
// instead of aborting.
TEST(PayloadShapeTest, MisraGriesReportOfAnotherCapacityIsRejected) {
  MemStorage storage;
  DurableStore<MisraGries> store(&storage, DurableStoreOptions{});
  EpochServiceConfig config = Config();
  config.shards_per_epoch = 2;
  EpochService<MisraGries> service(&store, config);
  MisraGries narrow(8);
  MisraGries wide(16);
  for (uint64_t item = 0; item < 500; ++item) {
    narrow.Update(item % 13);
    wide.Update(item % 29);
  }

  EXPECT_EQ(Send(service, {Report(0, 0, narrow)}),
            std::vector<ControlCode>{ControlCode::kAccepted});
  EXPECT_EQ(Send(service, {Report(0, 1, wide)}),
            std::vector<ControlCode>{ControlCode::kRejected});
  EXPECT_EQ(service.stats().reports_rejected, 1u);

  ASSERT_TRUE(service.SealEpoch(0, narrow.n() + wide.n()));
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->payload, EncodeSummary(CanonicalForm(narrow)));
}

template <typename S>
S Elastic(int depth, int width, uint64_t seed, uint64_t first_item) {
  S sketch(depth, width, seed);
  for (uint64_t item = first_item; item < first_item + 500; ++item) {
    sketch.Update(item % 97);
  }
  return sketch;
}

// The scenario that aborted the seal: reports of seed 7 and seed 8 for
// one epoch. The report of another seed, and the one of another depth,
// are rejected; the one of another width is admitted, and the seal
// folds it onto the narrower width.
template <typename S>
void ExpectElasticShapeChecked() {
  MemStorage storage;
  DurableStore<S> store(&storage, DurableStoreOptions{});
  EpochService<S> service(&store, Config());
  const S wide = Elastic<S>(4, 256, 7, 0);
  const S other_seed = Elastic<S>(4, 256, 8, 0);
  const S other_depth = Elastic<S>(3, 256, 7, 0);
  const S narrow = Elastic<S>(4, 64, 7, 100);

  EXPECT_EQ(Send(service, {Report(0, 0, wide)}),
            std::vector<ControlCode>{ControlCode::kAccepted});
  EXPECT_EQ(Send(service, {Report(0, 1, other_seed), Report(0, 2, other_depth),
                           Report(0, 3, narrow)}),
            (std::vector<ControlCode>{ControlCode::kRejected,
                                      ControlCode::kRejected,
                                      ControlCode::kAccepted}));
  EXPECT_EQ(service.stats().reports_rejected, 2u);
  EXPECT_EQ(service.stats().reports_accepted, 2u);

  ASSERT_TRUE(service.SealEpoch(0, wide.n() + narrow.n()));
  S expected = wide;
  expected.Merge(narrow);
  const auto range = store.QueryRangePayload(kStream, 0, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->payload, EncodeSummary(CanonicalForm(expected)));
}

TEST(PayloadShapeTest, ElasticCountMinReportOfAnotherSeedIsRejected) {
  ExpectElasticShapeChecked<ElasticCountMin>();
}

TEST(PayloadShapeTest, ElasticCountSketchReportOfAnotherSeedIsRejected) {
  ExpectElasticShapeChecked<ElasticCountSketch>();
}

}  // namespace
}  // namespace mergeable
