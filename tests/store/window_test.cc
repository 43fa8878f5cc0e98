// Sliding-window serving: "the last w epochs" resolves to an absolute
// range (store/query.h ResolveWindow) and is answered on the store's
// range path. The acceptance bar is byte-identity — with the absolute
// range, with an explicit leaf fold, and with a cold store paging every
// node in from storage — and epsilon reports that widen on degraded
// epochs exactly as range answers do. The server-level window path
// (EpochService + QRY1 window field) is exercised end to end through
// encoded frames, including after a durable warm restart.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/query.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 7;

template <typename S>
std::vector<uint8_t> Encode(const S& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

SpaceSaving EpochSummary(uint64_t epoch) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.05);
  Rng rng(900 + epoch);
  for (int i = 0; i < 200; ++i) {
    summary.Update(rng.Bernoulli(0.5) ? rng.UniformInt(12) : 40 + epoch % 7);
  }
  return summary;
}

EpochMeta MetaFor(uint64_t epoch, const SpaceSaving& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  meta.shards_total = 4;
  meta.shards_received = 4;
  return meta;
}

// The summary payload carried by an answer frame.
std::vector<uint8_t> AnswerPayload(const WireAnswer& answer) {
  const std::optional<TaggedPayload> tagged =
      DecodeTaggedPayload(answer.payload);
  EXPECT_TRUE(tagged.has_value());
  return tagged.has_value() ? tagged->payload : std::vector<uint8_t>{};
}

WireAnswer Ask(FrameHandler& service, const WireQuery& query) {
  const auto answer =
      DecodeAnswerFrame(service.HandleQuery(EncodeQueryFrame(query)));
  EXPECT_TRUE(answer.has_value());
  return answer.value_or(WireAnswer{});
}

WireAnswer AskWindow(FrameHandler& service, uint64_t stream, uint64_t w) {
  WireQuery query;
  query.stream = stream;
  query.window = w;
  return Ask(service, query);
}

WireAnswer AskRange(FrameHandler& service, uint64_t stream, uint64_t t1,
                    uint64_t t2) {
  WireQuery query;
  query.stream = stream;
  query.t1 = t1;
  query.t2 = t2;
  return Ask(service, query);
}

// An EpochService over a SummaryStore of S: each epoch's shard reports
// go in through encoded frames and are sealed, as the serving tier
// would.
template <typename S>
class ServiceHarness {
 public:
  ServiceHarness(uint64_t shards, StoreOptions options)
      : store_(&storage_, options), service_(&store_, Config(shards)) {}

  // Reports parts[i] as shard i's summary for `epoch`, then seals the
  // epoch with `offered_n` as the mass the shards tried to send.
  void Seal(uint64_t epoch, const std::vector<S>& parts, uint64_t offered_n) {
    for (size_t shard = 0; shard < parts.size(); ++shard) {
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = Encode(parts[shard]);
      const auto verdict =
          DecodeControlFrame(service_.HandleReport(EncodeReportFrame(report)));
      ASSERT_TRUE(verdict.has_value());
      ASSERT_EQ(verdict->code, ControlCode::kAccepted);
    }
    ASSERT_TRUE(service_.SealEpoch(epoch, offered_n));
  }

  // One shard per epoch, no lost mass.
  void SealWhole(uint64_t epoch, const S& summary) {
    Seal(epoch, {summary}, summary.n());
  }

  WireAnswer Window(uint64_t w) { return AskWindow(service_, kStream, w); }
  WireAnswer Range(uint64_t t1, uint64_t t2) {
    return AskRange(service_, kStream, t1, t2);
  }

  MemStorage& storage() { return storage_; }
  SummaryStore<S>& store() { return store_; }
  EpochService<S>& service() { return service_; }

 private:
  static EpochServiceConfig Config(uint64_t shards) {
    EpochServiceConfig config;
    config.stream = kStream;
    config.shards_per_epoch = shards;
    return config;
  }

  MemStorage storage_;
  SummaryStore<S> store_;
  EpochService<S> service_;
};

// Every window, resolved and served through the service, is the store's
// answer for the absolute suffix range: same bytes, same bound.
TEST(WindowTest, EveryWindowMatchesTheStoreByteForByte) {
  constexpr uint64_t kEpochs = 40;
  ServiceHarness<SpaceSaving> harness(1, StoreOptions{});
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    harness.SealWhole(epoch, EpochSummary(epoch));
  }
  for (uint64_t w = 1; w <= kEpochs; ++w) {
    const WireAnswer window = harness.Window(w);
    ASSERT_EQ(window.status, AnswerStatus::kOk) << w;
    EXPECT_EQ(window.t1, kEpochs - w);
    EXPECT_EQ(window.t2, kEpochs - 1);
    EXPECT_EQ(window.epochs_covered, w);
    const auto range =
        harness.store().QueryRangePayload(kStream, kEpochs - w, kEpochs - 1);
    ASSERT_TRUE(range.has_value()) << w;
    EXPECT_EQ(AnswerPayload(window), *range->payload) << "w=" << w;
    EXPECT_DOUBLE_EQ(window.received_bound, range->eps.received_bound);
    EXPECT_EQ(window.n_received, range->eps.n_received);
    EXPECT_EQ(window.epochs, w);
  }
}

TEST(WindowTest, WindowAnswerEqualsExplicitLeafMerge) {
  constexpr uint64_t kEpochs = 21;
  ServiceHarness<SpaceSaving> harness(1, StoreOptions{});
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    harness.SealWhole(epoch, EpochSummary(epoch));
  }
  for (const uint64_t w : {1u, 2u, 5u, 13u, 21u}) {
    const WireAnswer window = harness.Window(w);
    ASSERT_EQ(window.status, AnswerStatus::kOk);
    // The finest possible regrouping: merge the covered leaves one by
    // one, left-deep, with the canonical merge. Byte-stability across
    // regroupings is the store's core invariant; the window's answer
    // must sit on the same canonical point.
    std::optional<SpaceSaving> merged;
    for (uint64_t epoch = kEpochs - w; epoch < kEpochs; ++epoch) {
      const SpaceSaving leaf = EpochSummary(epoch);
      if (merged.has_value()) {
        CanonicalMergeInto(*merged, leaf);
      } else {
        merged = CanonicalForm(leaf);
      }
    }
    // w == 1 serves the sealed leaf verbatim (no canonicalization), so
    // compare through a round-trip on both sides.
    const SpaceSaving decoded =
        DecodeSummaryOrDie<SpaceSaving>(AnswerPayload(window));
    EXPECT_EQ(Encode(CanonicalForm(decoded)), Encode(*merged)) << "w=" << w;
  }
}

TEST(WindowTest, DegradedEpochInsideWindowWidensTheBound) {
  constexpr uint64_t kLost = 500;
  ServiceHarness<SpaceSaving> harness(2, StoreOptions{});
  for (uint64_t epoch = 0; epoch < 12; ++epoch) {
    const SpaceSaving left = EpochSummary(epoch);
    const SpaceSaving right = EpochSummary(100 + epoch);
    if (epoch == 8) {
      // Shard 1 never arrives: its offered mass is lost.
      harness.Seal(epoch, {left}, left.n() + kLost);
    } else {
      harness.Seal(epoch, {left, right}, left.n() + right.n());
    }
  }
  // Window [8, 11] includes the degraded epoch: the bound widens by its
  // lost mass, exactly as the range answer reports it.
  const WireAnswer wide = harness.Window(4);
  ASSERT_EQ(wide.status, AnswerStatus::kOk);
  EXPECT_EQ(wide.t1, 8u);
  EXPECT_EQ(wide.degraded_epochs, 1u);
  EXPECT_EQ(wide.lost_mass, kLost);
  EXPECT_LT(wide.coverage, 1.0);
  EXPECT_DOUBLE_EQ(wide.full_stream_bound,
                   wide.received_bound + static_cast<double>(kLost));
  const WireAnswer range = harness.Range(8, 11);
  ASSERT_EQ(range.status, AnswerStatus::kOk);
  EXPECT_EQ(AnswerPayload(wide), AnswerPayload(range));
  EXPECT_DOUBLE_EQ(wide.full_stream_bound, range.full_stream_bound);
  EXPECT_DOUBLE_EQ(wide.coverage, range.coverage);
  // Window [9, 11] excludes it: clean bound.
  const WireAnswer clean = harness.Window(3);
  ASSERT_EQ(clean.status, AnswerStatus::kOk);
  EXPECT_EQ(clean.degraded_epochs, 0u);
  EXPECT_EQ(clean.lost_mass, 0u);
  EXPECT_DOUBLE_EQ(clean.coverage, 1.0);
  EXPECT_DOUBLE_EQ(clean.full_stream_bound, clean.received_bound);
}

// The seal's write-through keeps the cache bounded on a long stream,
// and what it keeps resident is what storage holds: every window equals
// the answer of a store reopened cold over the same storage, which
// pages every node in.
TEST(WindowTest, PruningKeepsResidencyBoundedAndAnswersExact) {
  constexpr uint64_t kEpochs = 200;
  constexpr size_t kCapacity = 16;
  StoreOptions options;
  options.cache_capacity = kCapacity;
  ServiceHarness<SpaceSaving> harness(1, options);
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    harness.SealWhole(epoch, EpochSummary(epoch));
  }
  // Every leaf and node the seals wrote through, plus every node a seal
  // paged back in after it was evicted, entered the cache once; all but
  // kCapacity of them were evicted again.
  const CacheStats sealed = harness.store().cache_stats();
  const uint64_t inserted =
      kEpochs + harness.store().stats().nodes_built + sealed.misses;
  EXPECT_EQ(inserted - sealed.evictions, kCapacity);

  SummaryStore<SpaceSaving> cold(&harness.storage(), options);
  ASSERT_EQ(cold.Open(), 1u);
  for (uint64_t w = 1; w <= kCapacity; ++w) {
    const WireAnswer window = harness.Window(w);
    ASSERT_EQ(window.status, AnswerStatus::kOk) << w;
    const auto range = cold.QueryRangePayload(kStream, kEpochs - w,
                                              kEpochs - 1);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(AnswerPayload(window), *range->payload) << w;
  }
  EXPECT_GT(cold.stats().bytes_read, 0u);
}

TEST(WindowTest, DeamortizedSummariesServeWindowsUnchanged) {
  // The deamortized summary drops into the window path exactly as
  // SpaceSaving does: same wire format, same canonical merges.
  constexpr uint64_t kEpochs = 24;
  StoreOptions options;
  options.epsilon = 0.05;
  ServiceHarness<DeamortizedSpaceSaving> harness(1, options);
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    DeamortizedSpaceSaving summary = DeamortizedSpaceSaving::ForEpsilon(0.05);
    Rng rng(31 + epoch);
    for (int i = 0; i < 300; ++i) {
      summary.Update(rng.Bernoulli(0.5) ? rng.UniformInt(9) : 77 + epoch % 3);
    }
    harness.SealWhole(epoch, summary);
  }
  SummaryStore<DeamortizedSpaceSaving> cold(&harness.storage(), options);
  ASSERT_EQ(cold.Open(), 1u);
  for (const uint64_t w : {1u, 3u, 8u, 17u, 24u}) {
    const WireAnswer window = harness.Window(w);
    ASSERT_EQ(window.status, AnswerStatus::kOk) << w;
    const auto range = cold.QueryRangePayload(kStream, kEpochs - w,
                                              kEpochs - 1);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(AnswerPayload(window), *range->payload) << w;
    EXPECT_EQ(window.epochs, w);
    EXPECT_EQ(window.n_received, range->eps.n_received);
    EXPECT_DOUBLE_EQ(window.coverage, 1.0);
    EXPECT_DOUBLE_EQ(window.received_bound, range->eps.received_bound);
  }
}

TEST(WindowTest, PlannerSugarForwardsAndClamps) {
  MemStorage storage;
  SummaryStore<SpaceSaving> store(&storage);
  for (uint64_t epoch = 0; epoch < 10; ++epoch) {
    const SpaceSaving summary = EpochSummary(epoch);
    ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(epoch, summary)));
  }
  const auto resolved = ResolveWindow(store, kStream, 4);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->first, 6u);
  EXPECT_EQ(resolved->second, 9u);

  const auto window_topk = QueryWindowTopK(store, kStream, 4, 5);
  const auto range_topk = QueryTopK(store, kStream, 6, 9, size_t{5});
  ASSERT_TRUE(window_topk.has_value());
  ASSERT_TRUE(range_topk.has_value());
  ASSERT_EQ(window_topk->items.size(), range_topk->items.size());
  for (size_t i = 0; i < range_topk->items.size(); ++i) {
    EXPECT_EQ(window_topk->items[i].item, range_topk->items[i].item);
    EXPECT_EQ(window_topk->items[i].count, range_topk->items[i].count);
  }

  // w larger than the history clamps to the full sealed range.
  const auto clamped = QueryWindowPointFrequency(store, kStream, 1000, 3);
  const auto full = QueryPointFrequency(store, kStream, 0, 9, uint64_t{3});
  ASSERT_TRUE(clamped.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(clamped->estimate, full->estimate);
  EXPECT_EQ(clamped->lower, full->lower);
  EXPECT_EQ(clamped->upper, full->upper);

  EXPECT_FALSE(QueryWindowTopK(store, kStream, 0, 5).has_value());
  EXPECT_FALSE(QueryWindowTopK(store, kStream + 1, 4, 5).has_value());
}

TEST(WindowTest, QuantilePlannerServesWindows) {
  MemStorage storage;
  StoreOptions options;
  options.epsilon = 0.02;
  SummaryStore<MergeableQuantiles> store(&storage, options);
  for (uint64_t epoch = 0; epoch < 8; ++epoch) {
    MergeableQuantiles summary = MergeableQuantiles::ForEpsilon(0.02, 5);
    Rng rng(60 + epoch);
    for (int i = 0; i < 500; ++i) {
      summary.Update(static_cast<double>(epoch * 1000 + rng.UniformInt(1000)));
    }
    EpochMeta meta;
    meta.epoch = epoch;
    meta.n = summary.n();
    ASSERT_TRUE(store.Seal(kStream, summary, meta));
  }
  const auto window = QueryWindowQuantile(store, kStream, 2, 0.5);
  const auto range = QueryQuantile(store, kStream, 6, 7, 0.5);
  ASSERT_TRUE(window.has_value());
  ASSERT_TRUE(range.has_value());
  EXPECT_DOUBLE_EQ(window->value, range->value);
  // The last two epochs hold values in [6000, 8000): the window median
  // must come from them, not from the stream's full history.
  EXPECT_GE(window->value, 6000.0);
}

// ---- Server path: QRY1 window queries end to end ----

constexpr uint64_t kServiceShards = 2;

EpochServiceConfig ServiceConfig() {
  EpochServiceConfig config;
  config.stream = 1;
  config.shards_per_epoch = kServiceShards;
  return config;
}

// Reports one summary per shard for `epoch` to `service` and seals it.
template <typename Service>
void RunEpoch(Service& service, uint64_t epoch) {
  uint64_t offered = 0;
  for (uint64_t shard = 0; shard < kServiceShards; ++shard) {
    SpaceSaving summary = SpaceSaving::ForEpsilon(0.05);
    Rng rng(epoch * 10 + shard);
    for (int i = 0; i < 150; ++i) summary.Update(rng.UniformInt(30));
    offered += summary.n();
    WireReport report;
    report.shard_id = shard;
    report.epoch = epoch;
    report.payload = Encode(summary);
    const auto verdict =
        DecodeControlFrame(service.HandleReport(EncodeReportFrame(report)));
    ASSERT_TRUE(verdict.has_value());
    ASSERT_EQ(verdict->code, ControlCode::kAccepted);
  }
  ASSERT_TRUE(service.SealEpoch(epoch, offered));
}

class WindowServiceTest : public ::testing::Test {
 protected:
  WindowServiceTest()
      : store_(&storage_, StoreOptions{}),
        service_(&store_, ServiceConfig()) {}

  void RunEpoch(uint64_t epoch) { mergeable::RunEpoch(service_, epoch); }

  WireAnswer Ask(uint64_t window) { return AskWindow(service_, 1, window); }

  MemStorage storage_;
  SummaryStore<SpaceSaving> store_;
  EpochService<SpaceSaving> service_;
};

TEST_F(WindowServiceTest, WindowQueryResolvesToSuffixAndMatchesRange) {
  for (uint64_t epoch = 0; epoch < 12; ++epoch) RunEpoch(epoch);
  const WireAnswer window = Ask(5);
  ASSERT_EQ(window.status, AnswerStatus::kOk);
  EXPECT_EQ(window.t1, 7u);
  EXPECT_EQ(window.t2, 11u);
  EXPECT_EQ(window.epochs_covered, 5u);

  const WireAnswer explicit_range = AskRange(service_, 1, 7, 11);
  ASSERT_EQ(explicit_range.status, AnswerStatus::kOk);
  // The acceptance bar: a window answer is byte-identical to the
  // absolute range.
  EXPECT_EQ(window.payload, explicit_range.payload);
  EXPECT_DOUBLE_EQ(window.full_stream_bound, explicit_range.full_stream_bound);
  const EpochServiceStats stats = service_.stats();
  EXPECT_EQ(stats.queries_window, 1u);
  // The seals wrote the cover through the cache: no storage read.
  EXPECT_EQ(stats.queries_window_ring, 1u);
}

// queries_window_ring counts window answers served without a storage
// read. A cover the seals left resident counts; the same window on a
// one-entry cache, whose cover was evicted, pages in from storage and
// does not count; the bytes are the same both times.
TEST_F(WindowServiceTest, OversizedWindowFallsBackToStoreByteIdentically) {
  MemStorage tiny_storage;
  StoreOptions tiny_options;
  tiny_options.cache_capacity = 1;
  SummaryStore<SpaceSaving> tiny_store(&tiny_storage, tiny_options);
  EpochService<SpaceSaving> tiny_service(&tiny_store, ServiceConfig());
  for (uint64_t epoch = 0; epoch < 12; ++epoch) {
    RunEpoch(epoch);
    mergeable::RunEpoch(tiny_service, epoch);
  }
  // w = 10 resolves to [2, 11], covered by nodes (1, 1), (2, 1) and
  // (2, 2). The one-entry cache holds only (2, 2), the last node the
  // seals built, so the rest of the cover pages in.
  const WireAnswer resident = Ask(10);
  ASSERT_EQ(resident.status, AnswerStatus::kOk);
  EXPECT_EQ(resident.t1, 2u);
  EXPECT_EQ(resident.t2, 11u);
  const WireAnswer paged = AskWindow(tiny_service, 1, 10);
  ASSERT_EQ(paged.status, AnswerStatus::kOk);
  EXPECT_EQ(paged.t1, 2u);
  EXPECT_EQ(paged.t2, 11u);
  EXPECT_EQ(resident.payload, paged.payload);

  const WireAnswer explicit_range = AskRange(service_, 1, 2, 11);
  ASSERT_EQ(explicit_range.status, AnswerStatus::kOk);
  EXPECT_EQ(resident.payload, explicit_range.payload);

  EXPECT_EQ(service_.stats().queries_window, 1u);
  EXPECT_EQ(service_.stats().queries_window_ring, 1u);
  EXPECT_EQ(tiny_service.stats().queries_window, 1u);
  EXPECT_EQ(tiny_service.stats().queries_window_ring, 0u);
  EXPECT_GT(tiny_store.stats().bytes_read, 0u);
}

TEST_F(WindowServiceTest, WindowClampsToHistoryAndRefusesEmptyStream) {
  // No epochs sealed yet: refused, not aborted.
  const WireAnswer empty = Ask(4);
  EXPECT_EQ(empty.status, AnswerStatus::kUnknownRange);

  for (uint64_t epoch = 0; epoch < 3; ++epoch) RunEpoch(epoch);
  const WireAnswer clamped = Ask(100);
  ASSERT_EQ(clamped.status, AnswerStatus::kOk);
  EXPECT_EQ(clamped.t1, 0u);
  EXPECT_EQ(clamped.t2, 2u);
  EXPECT_EQ(clamped.epochs_covered, 3u);
}

// A service over a DurableStore reopened from its segment log resumes
// the epoch axis and answers windows — including windows that straddle
// the restart — byte-identically to the absolute range, and identically
// to the answers given before the restart.
TEST(DurableWindowServiceTest, WarmRestartWindowMatchesAbsoluteRange) {
  using Service = EpochService<SpaceSaving, DurableStore<SpaceSaving>>;
  constexpr uint64_t kBefore = 13;
  constexpr uint64_t kAfter = 5;
  const EpochServiceConfig config = ServiceConfig();
  const std::vector<uint64_t> windows{1, 2, 5, 8, kBefore};
  MemStorage durable;
  std::vector<std::vector<uint8_t>> before_restart;
  {
    DurableStore<SpaceSaving> store(&durable);
    store.Open();
    Service service(&store, config);
    for (uint64_t epoch = 0; epoch < kBefore; ++epoch) {
      RunEpoch(service, epoch);
    }
    for (const uint64_t w : windows) {
      const WireAnswer answer = AskWindow(service, 1, w);
      ASSERT_EQ(answer.status, AnswerStatus::kOk) << w;
      before_restart.push_back(answer.payload);
    }
  }

  DurableStore<SpaceSaving> store(&durable);
  ASSERT_EQ(store.Open().epochs, kBefore);
  Service service(&store, config);
  EXPECT_EQ(service.next_epoch(), kBefore);
  for (size_t i = 0; i < windows.size(); ++i) {
    const WireAnswer window = AskWindow(service, 1, windows[i]);
    ASSERT_EQ(window.status, AnswerStatus::kOk) << windows[i];
    EXPECT_EQ(window.t2, kBefore - 1);
    EXPECT_EQ(window.payload, before_restart[i]) << windows[i];
    const WireAnswer range =
        AskRange(service, 1, kBefore - windows[i], kBefore - 1);
    ASSERT_EQ(range.status, AnswerStatus::kOk);
    EXPECT_EQ(window.payload, range.payload) << windows[i];
  }

  for (uint64_t epoch = kBefore; epoch < kBefore + kAfter; ++epoch) {
    RunEpoch(service, epoch);
  }
  constexpr uint64_t kLast = kBefore + kAfter - 1;
  for (uint64_t w = 1; w <= kBefore + kAfter; ++w) {
    const WireAnswer window = AskWindow(service, 1, w);
    ASSERT_EQ(window.status, AnswerStatus::kOk) << w;
    EXPECT_EQ(window.t1, kLast + 1 - w);
    const WireAnswer range = AskRange(service, 1, kLast + 1 - w, kLast);
    ASSERT_EQ(range.status, AnswerStatus::kOk);
    EXPECT_EQ(window.payload, range.payload) << w;
    EXPECT_DOUBLE_EQ(window.full_stream_bound, range.full_stream_bound);
  }
}

}  // namespace
}  // namespace mergeable
