// Deadline-bounded range queries: a query that cannot afford its whole
// dyadic cover answers with the prefix it merged and an epsilon report
// widened by exactly the mass it skipped (AccumulateEpsilonPartial) —
// slow-merge injection is a virtual per-node cost, so every scenario
// here is deterministic. The cut answer is the real value of its
// covered range, byte for byte, even for order-sensitive summaries.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/dyadic.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 3;
constexpr uint64_t kEpochs = 32;

SpaceSaving EpochSummary(uint64_t epoch) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.05);
  Rng rng(400 + epoch);
  for (int i = 0; i < 100; ++i) {
    summary.Update(rng.Bernoulli(0.6) ? rng.UniformInt(10)
                                      : 50 + epoch % 5);
  }
  return summary;
}

// Seals kEpochs epochs; epoch e carries n = its summary mass and a
// known pre-existing lost_mass of e (so partial answers must fold in
// both components of a skipped epoch).
void FillStore(DurableStore<SpaceSaving>& store) {
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    SpaceSaving summary = EpochSummary(epoch);
    EpochMeta meta;
    meta.epoch = epoch;
    meta.n = summary.n();
    meta.shards_total = 4;
    meta.shards_received = 4;
    meta.lost_mass = epoch;
    ASSERT_TRUE(store.Seal(kStream, summary, meta));
  }
}

TEST(DeadlineQueryTest, GenerousBudgetMatchesUnboundedPath) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  const auto unbounded = store.QueryRangePayload(kStream, 3, 29);
  ASSERT_TRUE(unbounded.has_value());
  QueryDeadline deadline;
  deadline.budget_ms = 1000000;
  deadline.cost_per_node_ms = 1;
  const auto bounded =
      store.QueryRangePayloadBounded(kStream, 3, 29, deadline);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_FALSE(bounded->partial);
  EXPECT_EQ(bounded->covered_hi, 29u);
  EXPECT_EQ(*bounded->payload, *unbounded->payload);
  EXPECT_DOUBLE_EQ(bounded->eps.full_stream_bound,
                   unbounded->eps.full_stream_bound);
}

TEST(DeadlineQueryTest, ZeroCostDisablesTheDeadline) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  QueryDeadline deadline;
  deadline.budget_ms = 0;  // Irrelevant: cost 0 means nothing charges.
  deadline.cost_per_node_ms = 0;
  const auto outcome =
      store.QueryRangePayloadBounded(kStream, 0, kEpochs - 1, deadline);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->partial);
}

TEST(DeadlineQueryTest, SlowMergeForcesPartialAnswer) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  const uint64_t t1 = 1;
  const uint64_t t2 = 30;
  const std::vector<DyadicNode> cover = DyadicCover(t1, t2);
  ASSERT_GT(cover.size(), 2u);
  // Budget affords exactly two of the covering nodes.
  QueryDeadline deadline;
  deadline.cost_per_node_ms = 10;
  deadline.budget_ms = 20;
  const auto outcome =
      store.QueryRangePayloadBounded(kStream, t1, t2, deadline);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stats.nodes_merged, 2u);
  EXPECT_EQ(outcome->covered_hi, cover[1].last());
  EXPECT_LT(outcome->covered_hi, t2);

  // The partial payload is byte-identical to an unbounded query over
  // exactly the covered prefix — a partial answer is a real answer for
  // a smaller range, not an approximation of the full one.
  const auto prefix =
      store.QueryRangePayload(kStream, t1, outcome->covered_hi);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*outcome->payload, *prefix->payload);
}

TEST(DeadlineQueryTest, WidenedEpsilonAccountsSkippedMassExactly) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  const uint64_t t1 = 0;
  // Not the full power-of-two range: [0, 31] is a single dyadic node,
  // which one node of budget covers entirely. [0, 30] needs several.
  const uint64_t t2 = kEpochs - 2;
  QueryDeadline deadline;
  deadline.cost_per_node_ms = 100;
  deadline.budget_ms = 100;  // One node only.
  const auto outcome =
      store.QueryRangePayloadBounded(kStream, t1, t2, deadline);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->partial);

  const std::vector<EpochMeta>& metas = store.Metas(kStream);
  // True lost mass of the answer: everything the deadline skipped
  // (each skipped epoch's full n, plus its own pre-existing loss) on
  // top of the covered epochs' recorded loss.
  uint64_t expected_lost = 0;
  uint64_t expected_received = 0;
  for (uint64_t e = t1; e <= t2; ++e) {
    if (e <= outcome->covered_hi) {
      expected_received += metas[e].n;
      expected_lost += metas[e].lost_mass;
    } else {
      expected_lost += metas[e].n + metas[e].lost_mass;
    }
  }
  EXPECT_EQ(outcome->eps.n_received, expected_received);
  EXPECT_EQ(outcome->eps.lost_mass, expected_lost);
  EXPECT_DOUBLE_EQ(
      outcome->eps.received_bound,
      store.options().store.epsilon *
          static_cast<double>(expected_received));
  EXPECT_DOUBLE_EQ(outcome->eps.full_stream_bound,
                   outcome->eps.received_bound +
                       static_cast<double>(expected_lost));
  // Widened, never narrowed: the partial bound dominates what a full
  // answer would have reported.
  const auto full = store.QueryRangePayload(kStream, t1, t2);
  ASSERT_TRUE(full.has_value());
  EXPECT_GE(outcome->eps.full_stream_bound, full->eps.full_stream_bound);
  // Every skipped epoch counts as degraded coverage.
  EXPECT_EQ(outcome->eps.degraded_epochs, t2 - outcome->covered_hi);
  EXPECT_LT(outcome->eps.coverage, 1.0);
}

TEST(DeadlineQueryTest, AtLeastOneNodeAlwaysMerges) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  QueryDeadline deadline;
  deadline.cost_per_node_ms = 1000;
  deadline.budget_ms = 1;  // Cannot afford even one node — one merges
                           // anyway (the floor any deadline must pay).
  const auto outcome =
      store.QueryRangePayloadBounded(kStream, 0, kEpochs - 1, deadline);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stats.nodes_merged, 1u);
}

TEST(DeadlineQueryTest, PartialAnswersBypassTheRangeCache) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  QueryDeadline tight;
  tight.cost_per_node_ms = 100;
  tight.budget_ms = 100;
  const auto partial =
      store.QueryRangePayloadBounded(kStream, 0, kEpochs - 2, tight);
  ASSERT_TRUE(partial.has_value());
  ASSERT_TRUE(partial->partial);
  // A cut answer is cached under the range it covers, never under the
  // requested one: a later unbounded query over the same range must
  // compute the full answer, not replay the partial one.
  const auto full = store.QueryRangePayload(kStream, 0, kEpochs - 2);
  ASSERT_TRUE(full.has_value());
  EXPECT_NE(*full->payload, *partial->payload);
}

TEST(DeadlineQueryTest, RepeatedCutQueryHitsTheRangeCache) {
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  QueryDeadline tight;
  tight.cost_per_node_ms = 10;
  tight.budget_ms = 20;  // Two nodes of [1, 30]'s cover.
  const auto first = store.QueryRangePayloadBounded(kStream, 1, 30, tight);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->partial);
  EXPECT_FALSE(first->stats.range_cache_hit);
  const auto again = store.QueryRangePayloadBounded(kStream, 1, 30, tight);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->partial);
  EXPECT_TRUE(again->stats.range_cache_hit);
  EXPECT_EQ(again->stats.nodes_merged, 0u);
  EXPECT_EQ(again->covered_hi, first->covered_hi);
  EXPECT_EQ(*again->payload, *first->payload);
  EXPECT_DOUBLE_EQ(again->eps.full_stream_bound,
                   first->eps.full_stream_bound);
}

// Seals the same 64-epoch history into two stores, cuts queries over
// many ranges at budgets of 1 to 8 nodes in one, and asks the other,
// which never saw a cut query, for the covered prefix unbounded: the two
// answers must match byte for byte. The summaries are order-sensitive,
// so a cut answer of four nodes or more folded in any other order than
// its range's (a balanced one, say) differs.
template <typename T>
void ExpectEveryCutAnswerIsItsCoveredRange(T (*epoch_summary)(uint64_t)) {
  constexpr uint64_t kHistory = 64;
  MemStorage cut_storage;
  MemStorage full_storage;
  DurableStore<T> cut_store(&cut_storage);
  DurableStore<T> full_store(&full_storage);
  for (uint64_t epoch = 0; epoch < kHistory; ++epoch) {
    const T summary = epoch_summary(epoch);
    EpochMeta meta;
    meta.epoch = epoch;
    meta.n = summary.n();
    ASSERT_TRUE(cut_store.Seal(kStream, summary, meta));
    ASSERT_TRUE(full_store.Seal(kStream, summary, meta));
  }
  uint64_t cut_answers = 0;
  uint64_t long_cuts = 0;  // Cut answers folded from four nodes or more.
  for (uint64_t t1 = 0; t1 < kHistory; t1 += 3) {
    for (uint64_t t2 = t1 + 7; t2 < kHistory; t2 += 5) {
      for (uint64_t budget = 1; budget <= 8; ++budget) {
        QueryDeadline deadline;
        deadline.cost_per_node_ms = 1;
        deadline.budget_ms = budget;
        const auto cut =
            cut_store.QueryRangePayloadBounded(kStream, t1, t2, deadline);
        ASSERT_TRUE(cut.has_value());
        if (!cut->partial) continue;
        ++cut_answers;
        if (budget >= 4) ++long_cuts;
        const auto full =
            full_store.QueryRangePayload(kStream, t1, cut->covered_hi);
        ASSERT_TRUE(full.has_value());
        EXPECT_EQ(*cut->payload, *full->payload)
            << "[" << t1 << ", " << t2 << "] budget " << budget
            << " covered through " << cut->covered_hi;
      }
    }
  }
  EXPECT_GT(cut_answers, 100u);
  EXPECT_GT(long_cuts, 20u);
}

SpaceSaving SmallSpaceSaving(uint64_t epoch) {
  SpaceSaving summary(16);
  Rng rng(700 + epoch);
  for (int i = 0; i < 200; ++i) {
    summary.Update(rng.Bernoulli(0.5) ? rng.UniformInt(12)
                                      : 20 + rng.UniformInt(40));
  }
  return summary;
}

MergeableQuantiles SmallQuantiles(uint64_t epoch) {
  MergeableQuantiles summary = MergeableQuantiles::ForEpsilon(0.1, 77);
  Rng rng(500 + epoch);
  for (int i = 0; i < 120; ++i) {
    summary.Update(static_cast<double>(rng.UniformInt(10000)));
  }
  return summary;
}

TEST(DeadlineQueryTest, CutSpaceSavingAnswersEqualTheCoveredRange) {
  ExpectEveryCutAnswerIsItsCoveredRange<SpaceSaving>(&SmallSpaceSaving);
}

TEST(DeadlineQueryTest, CutQuantilesAnswersEqualTheCoveredRange) {
  ExpectEveryCutAnswerIsItsCoveredRange<MergeableQuantiles>(&SmallQuantiles);
}

TEST(DeadlineQueryTest, PartialAccountingMatchesAccumulateEpsilon) {
  // covered_hi == hi degenerates to the plain accumulation.
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage);
  FillStore(store);
  const std::vector<EpochMeta>& metas = store.Metas(kStream);
  const EpsilonReport whole = AccumulateEpsilon(metas, 2, 20, 0.01);
  const EpsilonReport partial =
      AccumulateEpsilonPartial(metas, 2, 20, 20, 0.01);
  EXPECT_EQ(whole.n_received, partial.n_received);
  EXPECT_EQ(whole.lost_mass, partial.lost_mass);
  EXPECT_DOUBLE_EQ(whole.full_stream_bound, partial.full_stream_bound);
  EXPECT_EQ(whole.epochs, partial.epochs);
  EXPECT_EQ(whole.degraded_epochs, partial.degraded_epochs);
}

}  // namespace
}  // namespace mergeable
