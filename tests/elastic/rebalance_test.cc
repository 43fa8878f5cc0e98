// RebalanceController tests: plan shapes for doubling/halving arcs,
// per-epoch shard accounting, TOP1 wire round trips, and — the part
// that makes live resharding sound — the summary-level recipes: a
// parent's Split() really produces its two children's summaries, and a
// join's Merge() really reconstitutes the parent, with mass accounted
// to the byte. Closes with a mixed-size dyadic store: epochs sealed at
// different sketch widths (the autoscale aftermath) must still answer
// range queries with valid brackets and byte-stable payloads.

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/rebalance.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

TEST(RebalanceControllerTest, ShardsForEpochFollowsTheArc) {
  RebalanceController controller(/*base_shards=*/4);
  controller.AddStep(/*effective_epoch=*/3, /*shard_count=*/8);
  controller.AddStep(/*effective_epoch=*/6, /*shard_count=*/4);
  EXPECT_EQ(controller.ShardsForEpoch(0), 4u);
  EXPECT_EQ(controller.ShardsForEpoch(2), 4u);
  EXPECT_EQ(controller.ShardsForEpoch(3), 8u);
  EXPECT_EQ(controller.ShardsForEpoch(5), 8u);
  EXPECT_EQ(controller.ShardsForEpoch(6), 4u);
  EXPECT_EQ(controller.ShardsForEpoch(100), 4u);
  EXPECT_EQ(controller.ShardsBeforeStep(0), 4u);
  EXPECT_EQ(controller.ShardsBeforeStep(1), 8u);
}

TEST(RebalanceControllerTest, DoublingPlansSplitOps) {
  RebalanceController controller(4);
  controller.AddStep(3, 8);
  const WireTopology plan = controller.PlanStep(0);
  EXPECT_EQ(plan.effective_epoch, 3u);
  EXPECT_EQ(plan.shard_count, 8u);
  ASSERT_EQ(plan.ops.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.ops[i].kind, TopologyOpKind::kSplit);
    EXPECT_EQ(plan.ops[i].parent, i);
    EXPECT_EQ(plan.ops[i].child_a, i);
    EXPECT_EQ(plan.ops[i].child_b, i + 4);
  }
}

TEST(RebalanceControllerTest, HalvingPlansJoinOps) {
  RebalanceController controller(8);
  controller.AddStep(5, 4);
  const WireTopology plan = controller.PlanStep(0);
  ASSERT_EQ(plan.ops.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.ops[i].kind, TopologyOpKind::kJoin);
    EXPECT_EQ(plan.ops[i].parent, i);
    EXPECT_EQ(plan.ops[i].child_a, i);
    EXPECT_EQ(plan.ops[i].child_b, i + 4);
  }
}

TEST(RebalanceControllerTest, NonPowerChangeHasNoRecipe) {
  EXPECT_TRUE(PlanTopologyOps(4, 6).empty());
  EXPECT_TRUE(PlanTopologyOps(6, 4).empty());
  EXPECT_TRUE(PlanTopologyOps(4, 4).empty());
  EXPECT_EQ(PlanTopologyOps(1, 2).size(), 1u);
  EXPECT_EQ(PlanTopologyOps(2, 1).size(), 1u);
  EXPECT_EQ(PlanTopologyOps(16, 32).size(), 16u);
}

TEST(RebalanceControllerTest, EncodedStepsRoundTripTheWire) {
  RebalanceController controller(2);
  controller.AddStep(4, 4);
  controller.AddStep(9, 2);
  for (size_t step = 0; step < 2; ++step) {
    const std::vector<uint8_t> frame = controller.EncodeStep(step);
    EXPECT_EQ(PeekFrameKind(frame), FrameKind::kTopology);
    const auto decoded = DecodeTopologyFrame(frame);
    ASSERT_TRUE(decoded.has_value());
    const WireTopology plan = controller.PlanStep(step);
    EXPECT_EQ(decoded->effective_epoch, plan.effective_epoch);
    EXPECT_EQ(decoded->shard_count, plan.shard_count);
    ASSERT_EQ(decoded->ops.size(), plan.ops.size());
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      EXPECT_EQ(decoded->ops[i].kind, plan.ops[i].kind);
      EXPECT_EQ(decoded->ops[i].parent, plan.ops[i].parent);
      EXPECT_EQ(decoded->ops[i].child_a, plan.ops[i].child_a);
      EXPECT_EQ(decoded->ops[i].child_b, plan.ops[i].child_b);
    }
  }
}

TEST(RebalanceControllerDeathTest, StepsMustAdvance) {
  RebalanceController controller(4);
  controller.AddStep(3, 8);
  ASSERT_DEATH(controller.AddStep(3, 4), "increasing");
  ASSERT_DEATH(controller.AddStep(2, 4), "increasing");
  ASSERT_DEATH(RebalanceController(0), "base shard");
}

// ---- The split recipe at the summary level ----
//
// Routing invariant behind {parent i -> children i, i + N}: an item
// hashed to shard h % N lands, under 2N shards, on h % 2N which is
// either i or i + N. So the parent's summary Split() with the child
// routing function *is* the migration — no replay, no approximation
// beyond the θ floor the Split contract already charges.

TEST(RebalanceRecipeTest, SplitRecipeProducesChildShardSummaries) {
  constexpr uint64_t kOldShards = 2;
  constexpr uint64_t kNewShards = 4;
  // Build each parent shard's summary over the items it owns.
  std::map<uint64_t, uint64_t> exact;
  std::vector<SpaceSaving> parents;
  for (uint64_t shard = 0; shard < kOldShards; ++shard) {
    SpaceSaving summary(16);
    Rng rng(31 + shard);
    for (int i = 0; i < 1500; ++i) {
      // Items this shard owns under the old topology.
      const uint64_t item = rng.UniformInt(100) * kOldShards + shard;
      summary.Update(item);
      ++exact[item];
    }
    parents.push_back(std::move(summary));
  }
  const std::vector<TopologyOp> ops =
      PlanTopologyOps(kOldShards, kNewShards);
  ASSERT_EQ(ops.size(), kOldShards);
  std::map<uint64_t, SpaceSaving> children;
  uint64_t parent_mass = 0;
  uint64_t child_mass = 0;
  for (const TopologyOp& op : ops) {
    ASSERT_EQ(op.kind, TopologyOpKind::kSplit);
    const SpaceSaving& parent = parents[op.parent];
    parent_mass += parent.n();
    // Child a keeps items that still hash to the old id under 2N;
    // child b takes the rest.
    const uint64_t child_b = op.child_b;
    auto parts = parent.Split(2, [child_b, kNewShards](uint64_t item) {
      return item % kNewShards == child_b ? 1u : 0u;
    });
    child_mass += parts[0].n() + parts[1].n();
    children.emplace(op.child_a, std::move(parts[0]));
    children.emplace(op.child_b, std::move(parts[1]));
  }
  EXPECT_EQ(child_mass, parent_mass);
  ASSERT_EQ(children.size(), kNewShards);
  // Every item's bracket holds on the child shard that owns it now.
  for (const auto& [item, count] : exact) {
    const SpaceSaving& owner = children.at(item % kNewShards);
    EXPECT_LE(owner.LowerEstimate(item), count) << item;
    EXPECT_GE(owner.UpperEstimate(item), count) << item;
  }
}

TEST(RebalanceRecipeTest, JoinRecipeReconstitutesParentBrackets) {
  constexpr uint64_t kOldShards = 4;
  constexpr uint64_t kNewShards = 2;
  std::map<uint64_t, uint64_t> exact;
  std::vector<SpaceSaving> shards;
  for (uint64_t shard = 0; shard < kOldShards; ++shard) {
    SpaceSaving summary(16);
    Rng rng(77 + shard);
    for (int i = 0; i < 1200; ++i) {
      const uint64_t item = rng.UniformInt(80) * kOldShards + shard;
      summary.Update(item);
      ++exact[item];
    }
    shards.push_back(std::move(summary));
  }
  const std::vector<TopologyOp> ops =
      PlanTopologyOps(kOldShards, kNewShards);
  ASSERT_EQ(ops.size(), kNewShards);
  uint64_t joined_mass = 0;
  for (const TopologyOp& op : ops) {
    ASSERT_EQ(op.kind, TopologyOpKind::kJoin);
    SpaceSaving joined = shards[op.child_a];
    joined.Merge(shards[op.child_b]);
    joined_mass += joined.n();
    // The joined shard owns items ≡ parent (mod kNewShards): both of
    // its children's item sets, bracketed through the merge.
    for (const auto& [item, count] : exact) {
      if (item % kNewShards != op.parent) continue;
      EXPECT_LE(joined.LowerEstimate(item), count) << item;
      EXPECT_GE(joined.UpperEstimate(item), count) << item;
    }
  }
  uint64_t shard_mass = 0;
  for (const SpaceSaving& s : shards) shard_mass += s.n();
  EXPECT_EQ(joined_mass, shard_mass);
}

// ---- Mixed-size nodes in the dyadic store ----
//
// After an autoscale arc the per-epoch summaries arrive at different
// widths (narrow before the scale-up, wide after). ElasticCountMin
// merges across widths, so the store's internal tree nodes mix sizes;
// answers must keep their brackets and stay byte-deterministic.

TEST(RebalanceStoreTest, MixedWidthEpochsServeValidRangeAnswers) {
  constexpr uint64_t kEpochs = 12;
  constexpr int kDepth = 4;
  constexpr uint64_t kSeed = 99;
  MemStorage storage;
  DurableStoreOptions options;
  options.store.epsilon = 0.02;
  DurableStore<ElasticCountMin> store(&storage, options);

  std::vector<std::map<uint64_t, uint64_t>> per_epoch_exact(kEpochs);
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    // Width arc: 256 -> 1024 (epochs 4..7) -> 256.
    const int width = (epoch >= 4 && epoch < 8) ? 1024 : 256;
    ElasticCountMin sketch(kDepth, width, kSeed);
    Rng rng(500 + epoch);
    for (int i = 0; i < 400; ++i) {
      const uint64_t item =
          rng.Bernoulli(0.6) ? rng.UniformInt(10) : rng.UniformInt(120);
      sketch.Update(item);
      ++per_epoch_exact[epoch][item];
    }
    EpochMeta meta;
    meta.epoch = epoch;
    meta.n = sketch.n();
    meta.shards_total = 1;
    meta.shards_received = 1;
    ASSERT_TRUE(store.Seal(1, sketch, meta));
  }

  for (const auto& [lo, hi] :
       {std::pair<uint64_t, uint64_t>{0, 11}, {2, 9}, {4, 7}, {3, 4}}) {
    const auto outcome = store.QueryRangePayload(1, lo, hi);
    ASSERT_TRUE(outcome.has_value());
    ByteReader reader(*outcome->payload);
    const auto merged = ElasticCountMin::DecodeFrom(reader);
    ASSERT_TRUE(merged.has_value() && reader.Exhausted());
    // The merged range folds to the narrowest width it covers.
    EXPECT_EQ(merged->width(), (lo >= 4 && hi < 8) ? 1024 : 256);
    std::map<uint64_t, uint64_t> exact;
    uint64_t total = 0;
    for (uint64_t e = lo; e <= hi; ++e) {
      for (const auto& [item, count] : per_epoch_exact[e]) {
        exact[item] += count;
        total += count;
      }
    }
    EXPECT_EQ(merged->n(), total);
    for (const auto& [item, count] : exact) {
      EXPECT_GE(merged->Estimate(item), count) << item;
      EXPECT_LE(static_cast<double>(merged->Estimate(item)),
                static_cast<double>(count) + merged->ErrorBound())
          << item;
    }
    // Determinism: asking again returns identical bytes.
    const auto again = store.QueryRangePayload(1, lo, hi);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again->payload, *outcome->payload);
  }
}

TEST(RebalanceStoreTest, MixedWidthTreeIsCachePressureInvariant) {
  // A 1-entry cache evicts on every fetch; cold rebuilds of mixed-width
  // internal nodes must reproduce identical bytes.
  constexpr uint64_t kEpochs = 9;
  auto build = [](size_t cache_capacity, MemStorage* storage) {
    DurableStoreOptions options;
    options.store.cache_capacity = cache_capacity;
    DurableStore<ElasticCountMin> store(storage, options);
    for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
      const int width = epoch % 2 == 0 ? 128 : 512;
      ElasticCountMin sketch(4, width, /*seed=*/7);
      Rng rng(epoch);
      for (int i = 0; i < 250; ++i) sketch.Update(rng.UniformInt(90));
      EpochMeta meta;
      meta.epoch = epoch;
      meta.n = sketch.n();
      meta.shards_total = 1;
      meta.shards_received = 1;
      EXPECT_TRUE(store.Seal(1, sketch, meta));
    }
    std::vector<std::vector<uint8_t>> answers;
    for (uint64_t lo = 0; lo < kEpochs; ++lo) {
      for (uint64_t hi = lo; hi < kEpochs; ++hi) {
        auto outcome = store.QueryRangePayload(1, lo, hi);
        EXPECT_TRUE(outcome.has_value());
        answers.push_back(*outcome->payload);
      }
    }
    return answers;
  };
  MemStorage tiny_storage;
  MemStorage large_storage;
  EXPECT_EQ(build(1, &tiny_storage), build(256, &large_storage));
}

}  // namespace
}  // namespace mergeable
