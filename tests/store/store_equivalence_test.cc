// The store equivalence suite: every [t1, t2] range answer served from
// the dyadic tree + cache over the segment log must be byte-identical
// to a from-scratch recomputation over the raw epoch payloads, for
// every summary family, tree size, and cache pressure.
//
// "From scratch" means: no store, no persistence, no cache, no
// incremental state — the reference (reference_range.h) re-derives
// every range answer directly from the sealed leaf payloads using only
// the store's two defining equations (node = canonical(merge(left,
// right)); range = balanced canonical merge of the dyadic cover). For
// an associative family (CountMinSketch) the reference provably equals
// a plain left-deep fold of the raw epochs, which is asserted
// separately — so the tree is not just self-consistent, it computes
// *the* merge.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/dyadic.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/query.h"
#include "mergeable/util/random.h"
#include "reference_range.h"

namespace mergeable {
namespace {

// Per-family construction and deterministic per-epoch streams. Epoch
// streams overlap heavily across epochs (same skewed universe) so that
// merges actually contend — distinct universes would make every merge
// trivially disjoint.
template <typename T>
struct Family;

template <>
struct Family<SpaceSaving> {
  static SpaceSaving Make() { return SpaceSaving::ForEpsilon(0.05); }
  static void Feed(SpaceSaving& summary, uint64_t epoch) {
    Rng rng(9000 + epoch);
    for (int i = 0; i < 150; ++i) {
      // Skew: low items are hot everywhere, plus an epoch-local band.
      const uint64_t item = rng.Bernoulli(0.7) ? rng.UniformInt(12)
                                               : 100 + epoch % 7;
      summary.Update(item);
    }
  }
};

template <>
struct Family<MergeableQuantiles> {
  static MergeableQuantiles Make() {
    return MergeableQuantiles::ForEpsilon(0.1, /*seed=*/77);
  }
  static void Feed(MergeableQuantiles& summary, uint64_t epoch) {
    Rng rng(500 + epoch);
    for (int i = 0; i < 120; ++i) {
      summary.Update(static_cast<double>(rng.UniformInt(10000)));
    }
  }
};

template <>
struct Family<CountMinSketch> {
  static CountMinSketch Make() {
    return CountMinSketch::ForEpsilonDelta(0.02, 0.05, /*seed=*/5);
  }
  static void Feed(CountMinSketch& summary, uint64_t epoch) {
    Rng rng(3000 + epoch);
    for (int i = 0; i < 150; ++i) summary.Update(rng.UniformInt(64));
  }
};

template <typename T>
EpochMeta FullCoverageMeta(uint64_t epoch, const T& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  meta.shards_total = 4;
  meta.shards_received = 4;
  return meta;
}

// The sealed epochs of a synthetic stream, plus their raw payloads for
// the reference computation.
template <typename T>
struct SealedStream {
  std::vector<T> summaries;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<EpochMeta> metas;
};

template <typename T>
SealedStream<T> MakeStream(uint64_t epochs, uint64_t base_epoch = 0) {
  SealedStream<T> stream;
  for (uint64_t e = 0; e < epochs; ++e) {
    T summary = Family<T>::Make();
    Family<T>::Feed(summary, e);
    stream.payloads.push_back(EncodeSummary(summary));
    stream.metas.push_back(FullCoverageMeta(base_epoch + e, summary));
    stream.summaries.push_back(std::move(summary));
  }
  return stream;
}

template <typename T>
class StoreEquivalenceTest : public ::testing::Test {};

using Families =
    ::testing::Types<SpaceSaving, MergeableQuantiles, CountMinSketch>;
TYPED_TEST_SUITE(StoreEquivalenceTest, Families);

// The core guarantee at several tree sizes (balanced and ragged): every
// possible range, byte-identical payloads, identical epsilon reports.
TYPED_TEST(StoreEquivalenceTest, AllRangesMatchFromScratchRecomputation) {
  for (const uint64_t epochs : {1u, 6u, 16u, 33u}) {
    const SealedStream<TypeParam> stream = MakeStream<TypeParam>(epochs);
    MemStorage storage;
    StoreOptions options;
    options.epsilon = 0.05;
    options.cache_capacity = 64;
    DurableStoreOptions durable;
    durable.store = options;
    DurableStore<TypeParam> store(&storage, durable);
    for (uint64_t e = 0; e < epochs; ++e) {
      ASSERT_TRUE(store.Seal(1, stream.summaries[e], stream.metas[e]));
    }
    for (uint64_t lo = 0; lo < epochs; ++lo) {
      for (uint64_t hi = lo; hi < epochs; ++hi) {
        const auto outcome = store.QueryRangePayload(1, lo, hi);
        ASSERT_TRUE(outcome.has_value());
        const std::vector<uint8_t> reference =
            ReferenceRange<TypeParam>(stream.payloads, lo, hi);
        ASSERT_EQ(*outcome->payload, reference)
            << "range [" << lo << ", " << hi << "] of " << epochs;
        // The epsilon report must match direct accumulation over the
        // covered metas.
        const EpsilonReport direct =
            AccumulateEpsilon(stream.metas, lo, hi, options.epsilon);
        EXPECT_EQ(outcome->eps.epochs, direct.epochs);
        EXPECT_EQ(outcome->eps.n_received, direct.n_received);
        EXPECT_EQ(outcome->eps.lost_mass, direct.lost_mass);
        EXPECT_EQ(outcome->eps.degraded_epochs, direct.degraded_epochs);
        EXPECT_DOUBLE_EQ(outcome->eps.received_bound, direct.received_bound);
        EXPECT_DOUBLE_EQ(outcome->eps.full_stream_bound,
                         direct.full_stream_bound);
        // Cost bound: a range of length L merges at most 2*log2(L) + 2
        // nodes.
        uint64_t log2_len = 0;
        while ((uint64_t{1} << (log2_len + 1)) <= hi - lo + 1) ++log2_len;
        EXPECT_LE(outcome->stats.nodes_merged, 2 * log2_len + 2);
      }
    }
  }
}

// A 1-entry cache forces an eviction on nearly every node fetch; cold
// reconstruction after eviction must reproduce identical bytes, query
// after query.
TYPED_TEST(StoreEquivalenceTest, OneEntryCacheIsByteIdenticalToLargeCache) {
  constexpr uint64_t kEpochs = 17;
  const SealedStream<TypeParam> stream = MakeStream<TypeParam>(kEpochs);

  MemStorage tiny_storage;
  MemStorage large_storage;
  DurableStoreOptions tiny_options;
  tiny_options.store.cache_capacity = 1;
  DurableStoreOptions large_options;
  large_options.store.cache_capacity = 256;
  DurableStore<TypeParam> tiny(&tiny_storage, tiny_options);
  DurableStore<TypeParam> large(&large_storage, large_options);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(tiny.Seal(1, stream.summaries[e], stream.metas[e]));
    ASSERT_TRUE(large.Seal(1, stream.summaries[e], stream.metas[e]));
  }
  for (uint64_t lo = 0; lo < kEpochs; ++lo) {
    for (uint64_t hi = lo; hi < kEpochs; ++hi) {
      const auto cold = tiny.QueryRangePayload(1, lo, hi);
      const auto warm = large.QueryRangePayload(1, lo, hi);
      ASSERT_TRUE(cold.has_value());
      ASSERT_TRUE(warm.has_value());
      ASSERT_EQ(*cold->payload, *warm->payload)
          << "range [" << lo << ", " << hi << "]";
      // Same query again on the thrashing store: still identical.
      const auto again = tiny.QueryRangePayload(1, lo, hi);
      ASSERT_TRUE(again.has_value());
      ASSERT_EQ(*again->payload, *cold->payload);
    }
  }
  EXPECT_GT(tiny.cache_stats().evictions, 0u);
}

// The warm-cache acceptance criterion: a repeated range query is a pure
// cache hit — zero nodes fetched, zero merges performed — and the hit
// counters say so.
TYPED_TEST(StoreEquivalenceTest, WarmCacheAnswersRepeatsWithZeroMerges) {
  constexpr uint64_t kEpochs = 21;
  const SealedStream<TypeParam> stream = MakeStream<TypeParam>(kEpochs);
  MemStorage storage;
  DurableStore<TypeParam> store(&storage);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(store.Seal(1, stream.summaries[e], stream.metas[e]));
  }

  const auto cold = store.QueryRangePayload(1, 3, 18);
  ASSERT_TRUE(cold.has_value());
  EXPECT_FALSE(cold->stats.range_cache_hit);
  EXPECT_GT(cold->stats.nodes_merged, 1u);
  EXPECT_GT(cold->stats.merges_performed, 0u);

  const CacheStats before = store.cache_stats();
  const auto warm = store.QueryRangePayload(1, 3, 18);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(warm->stats.range_cache_hit);
  EXPECT_EQ(warm->stats.nodes_merged, 0u);
  EXPECT_EQ(warm->stats.merges_performed, 0u);
  EXPECT_EQ(warm->stats.node_cache_misses, 0u);
  EXPECT_EQ(warm->stats.bytes_read, 0u);
  EXPECT_EQ(*warm->payload, *cold->payload);
  EXPECT_EQ(store.cache_stats().hits, before.hits + 1);
}

// Degraded-coverage epochs widen the reported bound; complete ranges
// keep the native one.
TYPED_TEST(StoreEquivalenceTest, DegradedEpochsWidenTheReportedBound) {
  constexpr uint64_t kEpochs = 8;
  SealedStream<TypeParam> stream = MakeStream<TypeParam>(kEpochs);
  stream.metas[5].shards_received = 3;  // Of 4.
  stream.metas[5].lost_mass = 500;
  stream.metas[5].lost_mass_estimated = true;
  MemStorage storage;
  DurableStore<TypeParam> store(&storage);
  for (uint64_t e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE(store.Seal(1, stream.summaries[e], stream.metas[e]));
  }

  const auto clean = store.QueryRangePayload(1, 0, 4);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->eps.degraded_epochs, 0u);
  EXPECT_DOUBLE_EQ(clean->eps.full_stream_bound, clean->eps.received_bound);
  EXPECT_DOUBLE_EQ(clean->eps.coverage, 1.0);

  const auto degraded = store.QueryRangePayload(1, 2, 7);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->eps.degraded_epochs, 1u);
  EXPECT_EQ(degraded->eps.lost_mass, 500u);
  EXPECT_TRUE(degraded->eps.lost_mass_estimated);
  EXPECT_DOUBLE_EQ(degraded->eps.full_stream_bound,
                   degraded->eps.received_bound + 500.0);
  EXPECT_LT(degraded->eps.coverage, 1.0);
}

// Out-of-range and unknown-stream queries refuse, never abort.
TYPED_TEST(StoreEquivalenceTest, InvalidRangesAreRefused) {
  const SealedStream<TypeParam> stream = MakeStream<TypeParam>(4, 100);
  MemStorage storage;
  DurableStore<TypeParam> store(&storage);
  for (uint64_t e = 0; e < 4; ++e) {
    ASSERT_TRUE(store.Seal(1, stream.summaries[e], stream.metas[e]));
  }
  EXPECT_TRUE(store.QueryRangePayload(1, 100, 103).has_value());
  EXPECT_FALSE(store.QueryRangePayload(1, 99, 101).has_value());
  EXPECT_FALSE(store.QueryRangePayload(1, 102, 104).has_value());
  EXPECT_FALSE(store.QueryRangePayload(1, 103, 102).has_value());
  EXPECT_FALSE(store.QueryRangePayload(2, 100, 101).has_value());
}

// The sublinear-serving acceptance criterion, end to end: 1024 sealed
// epochs, a worst-case-shaped range, at most 20 nodes merged — and the
// answer still equals the plain left-deep fold of all 1022 raw epochs
// (CountMin merges are component-wise sums, so every topology agrees).
TEST(StoreAcceptanceTest, Query1024EpochsMergesAtMost20Nodes) {
  constexpr uint64_t kEpochs = 1024;
  MemStorage storage;
  DurableStoreOptions options;
  options.store.cache_capacity = 512;
  DurableStore<CountMinSketch> store(&storage, options);
  std::optional<CountMinSketch> naive;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    CountMinSketch summary = CountMinSketch::ForEpsilonDelta(0.05, 0.1, 5);
    Rng rng(e);
    for (int i = 0; i < 20; ++i) summary.Update(rng.UniformInt(32));
    ASSERT_TRUE(store.Seal(1, summary, FullCoverageMeta(e, summary)));
    if (e >= 1 && e <= kEpochs - 2) {
      if (!naive.has_value()) {
        naive = summary;
      } else {
        naive->Merge(summary);
      }
    }
  }
  // [1, 1022] avoids both aligned boundaries — the worst decomposition.
  const auto outcome = store.QueryRangePayload(1, 1, kEpochs - 2);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_LE(outcome->stats.nodes_merged, 20u);
  EXPECT_GT(outcome->stats.nodes_merged, 10u);
  EXPECT_EQ(*outcome->payload, EncodeSummary(*naive));
}

}  // namespace
}  // namespace mergeable
