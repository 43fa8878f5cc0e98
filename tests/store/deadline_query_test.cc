// Deadline-bounded range queries: a query that cannot afford its whole
// dyadic cover answers with the prefix it merged and an epsilon report
// widened by exactly the mass it skipped (AccumulateEpsilonPartial) —
// slow-merge injection is a virtual per-node cost, so every scenario
// here is deterministic.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
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
  // A later unbounded query over the same range must compute the full
  // answer, not replay the partial one from the cache.
  const auto full = store.QueryRangePayload(kStream, 0, kEpochs - 2);
  ASSERT_TRUE(full.has_value());
  EXPECT_NE(*full->payload, *partial->payload);
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
