// Randomized differential tests for the frequency summaries: thousands
// of small random scenarios (stream + partition + merge plan) where the
// guarantees are checked against brute-force exact counts. Small cases
// hit the edge geometry (empty summaries, single counters, all-ties,
// capacity-1 prunes) that the big statistical tests glide over.

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/frequency/exact_counter.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

struct Scenario {
  std::vector<std::vector<uint64_t>> shards;
  std::map<uint64_t, uint64_t> truth;
  uint64_t n = 0;
};

Scenario RandomScenario(Rng& rng) {
  Scenario scenario;
  const auto shard_count = 1 + rng.UniformInt(uint64_t{5});
  const auto universe = 1 + rng.UniformInt(uint64_t{15});
  for (uint64_t s = 0; s < shard_count; ++s) {
    std::vector<uint64_t> shard;
    const auto items = rng.UniformInt(uint64_t{40});
    for (uint64_t i = 0; i < items; ++i) {
      // Skew: pick twice, keep the smaller id.
      uint64_t item = rng.UniformInt(universe);
      item = rng.UniformInt(item + 1);
      shard.push_back(item);
      ++scenario.truth[item];
      ++scenario.n;
    }
    scenario.shards.push_back(std::move(shard));
  }
  return scenario;
}

TEST(FrequencyFuzzTest, MisraGriesBoundsAcrossRandomScenarios) {
  Rng rng(101);
  for (int trial = 0; trial < 3000; ++trial) {
    const Scenario scenario = RandomScenario(rng);
    const int capacity = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const bool use_cafaro = rng.Bernoulli(0.5);

    MisraGries merged(capacity);
    for (const auto& shard : scenario.shards) {
      MisraGries part(capacity);
      for (uint64_t item : shard) part.Update(item);
      if (use_cafaro) {
        merged.MergeCafaro(part);
      } else {
        merged.Merge(part);
      }
    }
    ASSERT_EQ(merged.n(), scenario.n) << "trial " << trial;
    ASSERT_LE(merged.size(), static_cast<size_t>(capacity));
    const uint64_t error = merged.ErrorBound();
    ASSERT_LE(error, scenario.n / static_cast<uint64_t>(capacity + 1));
    for (const auto& [item, count] : scenario.truth) {
      ASSERT_LE(merged.LowerEstimate(item), count)
          << "trial " << trial << " item " << item;
      ASSERT_LE(count, merged.LowerEstimate(item) + error)
          << "trial " << trial << " item " << item;
    }
  }
}

TEST(FrequencyFuzzTest, SpaceSavingBoundsAcrossRandomScenarios) {
  Rng rng(102);
  for (int trial = 0; trial < 3000; ++trial) {
    const Scenario scenario = RandomScenario(rng);
    const int capacity = 2 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const bool use_cafaro = rng.Bernoulli(0.5);

    SpaceSaving merged(capacity);
    for (const auto& shard : scenario.shards) {
      SpaceSaving part(capacity);
      for (uint64_t item : shard) part.Update(item);
      if (use_cafaro) {
        merged.MergeCafaro(part);
      } else {
        merged.Merge(part);
      }
    }
    ASSERT_EQ(merged.n(), scenario.n) << "trial " << trial;
    ASSERT_LE(merged.size(), static_cast<size_t>(capacity));
    for (const auto& [item, count] : scenario.truth) {
      ASSERT_LE(merged.LowerEstimate(item), count)
          << "trial " << trial << " item " << item;
      ASSERT_LE(count, merged.UpperEstimate(item))
          << "trial " << trial << " item " << item;
    }
    // k-majority items must be monitored (Cafaro Thm 4.4 / MG classic).
    const uint64_t threshold =
        scenario.n / static_cast<uint64_t>(capacity) + 1;
    for (const auto& [item, count] : scenario.truth) {
      if (count >= threshold) {
        ASSERT_GT(merged.Count(item), 0u)
            << "trial " << trial << " lost k-majority item " << item;
      }
    }
  }
}

TEST(FrequencyFuzzTest, MergeOrderNeverBreaksTheBound) {
  // The same parts merged in random orders (random binary trees) must
  // all satisfy the bound — mergeability is order-independence of the
  // guarantee, not of the exact state.
  Rng rng(104);
  for (int trial = 0; trial < 500; ++trial) {
    const Scenario scenario = RandomScenario(rng);
    const int capacity = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    std::vector<MisraGries> parts;
    for (const auto& shard : scenario.shards) {
      MisraGries part(capacity);
      for (uint64_t item : shard) part.Update(item);
      parts.push_back(std::move(part));
    }
    // Random merge order.
    while (parts.size() > 1) {
      const size_t a = rng.UniformInt(parts.size());
      size_t b = rng.UniformInt(parts.size() - 1);
      if (b >= a) ++b;
      parts[a].Merge(parts[b]);
      std::swap(parts[b], parts.back());
      parts.pop_back();
    }
    const MisraGries& merged = parts.front();
    const uint64_t error = merged.ErrorBound();
    for (const auto& [item, count] : scenario.truth) {
      ASSERT_LE(merged.LowerEstimate(item), count);
      ASSERT_LE(count, merged.LowerEstimate(item) + error);
    }
  }
}

TEST(FrequencyFuzzTest, ExactCounterAgreesWithTruthAlways) {
  Rng rng(105);
  for (int trial = 0; trial < 1000; ++trial) {
    const Scenario scenario = RandomScenario(rng);
    ExactCounter merged;
    for (const auto& shard : scenario.shards) {
      ExactCounter part;
      for (uint64_t item : shard) part.Update(item);
      merged.Merge(part);
    }
    ASSERT_EQ(merged.n(), scenario.n);
    for (const auto& [item, count] : scenario.truth) {
      ASSERT_EQ(merged.Count(item), count);
    }
  }
}

}  // namespace
}  // namespace mergeable
