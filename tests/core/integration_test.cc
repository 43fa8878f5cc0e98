// Integration tests: whole pipelines over one workload, combining
// several summaries, topologies and the wire format — the way a real
// deployment composes the library. Also pins down golden values for the
// deterministic components so accidental behavior changes surface here.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/mergeable.h"

namespace mergeable {
namespace {

// A fixed workload shared by the pipeline tests.
std::vector<uint64_t> Workload() {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 100000;
  spec.universe = 8192;
  spec.alpha = 1.1;
  return GenerateStream(spec, 4242);
}

TEST(IntegrationTest, GeneratorIsStableAcrossRuns) {
  // Golden values: the deterministic generator must never drift, or
  // every seeded experiment in EXPERIMENTS.md silently changes.
  const auto stream = Workload();
  ASSERT_EQ(stream.size(), 100000u);
  EXPECT_EQ(stream, Workload());
  const auto counts = ExactCounts(stream);
  // The head of the distribution is a stable property of (spec, seed).
  EXPECT_GT(counts.front().second, 5000u);
  EXPECT_EQ(counts.front().first, MixHash(0, 42));  // Rank 0 item id.
}

TEST(IntegrationTest, FullFrequencyPipelineAgainstExact) {
  const auto stream = Workload();
  const auto shards = PartitionStream(stream, 16, PartitionPolicy::kByValue, 1);

  // Per-shard SpaceSaving, merged with the Cafaro algorithm, queried
  // through TopK.
  ExactCounter exact;
  SpaceSaving merged(200);
  bool first = true;
  for (const auto& shard : shards) {
    SpaceSaving local(200);
    for (uint64_t item : shard) {
      local.Update(item);
      exact.Update(item);
    }
    if (first) {
      merged = std::move(local);
      first = false;
    } else {
      merged.MergeCafaro(local);
    }
  }
  ASSERT_EQ(merged.n(), exact.n());

  // Every guaranteed top-10 item must truly be top-10.
  const auto exact_top = exact.Counters();
  const auto top = TopK(merged, 10);
  for (const auto& entry : top) {
    if (!entry.guaranteed) continue;
    bool in_true_top = false;
    for (size_t i = 0; i < 10 && i < exact_top.size(); ++i) {
      in_true_top |= exact_top[i].item == entry.item;
    }
    EXPECT_TRUE(in_true_top) << "item " << entry.item;
  }
  // And intervals always contain the truth.
  for (const auto& entry : top) {
    const uint64_t truth = exact.Count(entry.item);
    EXPECT_LE(entry.lower, truth);
    EXPECT_GE(entry.upper, truth);
  }
}

TEST(IntegrationTest, QuantilePipelineThroughWireFormat) {
  const auto stream = Workload();
  const auto shards =
      PartitionStream(stream, 12, PartitionPolicy::kContiguous);

  // Shard -> sketch -> bytes -> decode -> merge, mimicking a network hop.
  MergeableQuantiles merged = MergeableQuantiles::ForEpsilon(0.01, 900);
  ExactQuantiles exact;
  for (size_t s = 0; s < shards.size(); ++s) {
    MergeableQuantiles local =
        MergeableQuantiles::ForEpsilon(0.01, 901 + s);
    for (uint64_t item : shards[s]) {
      const auto value = static_cast<double>(item % 10000);
      local.Update(value);
      exact.Update(value);
    }
    ByteWriter writer;
    local.EncodeTo(writer);
    const auto bytes = writer.TakeBytes();
    ByteReader reader(bytes);
    const auto decoded = MergeableQuantiles::DecodeFrom(reader);
    ASSERT_TRUE(decoded.has_value()) << "shard " << s;
    merged.Merge(*decoded);
  }
  ASSERT_EQ(merged.n(), stream.size());
  for (double phi : {0.25, 0.5, 0.9, 0.99}) {
    const double answer = merged.Quantile(phi);
    const auto rank = static_cast<double>(exact.Rank(answer));
    EXPECT_NEAR(rank, phi * static_cast<double>(stream.size()),
                0.02 * static_cast<double>(stream.size()))
        << "phi " << phi;
  }
}

TEST(IntegrationTest, MixedSketchDashboard) {
  // One pass filling four sketches; cross-check their answers against
  // each other where they overlap.
  const auto stream = Workload();
  CountMinSketch cm(5, 4096, 77);
  SpaceSaving ss(500);
  KmvSketch kmv(1024, 78);
  BloomFilter bloom = BloomFilter::ForExpectedItems(10000, 0.01, 79);
  for (uint64_t item : stream) {
    cm.Update(item);
    ss.Update(item);
    kmv.Add(item);
    bloom.Add(item);
  }
  const auto counts = ExactCounts(stream);
  // CM upper bound >= SS lower bound for the top items.
  for (size_t i = 0; i < 20; ++i) {
    const uint64_t item = counts[i].first;
    EXPECT_GE(cm.Estimate(item), ss.LowerEstimate(item));
    EXPECT_TRUE(bloom.MayContain(item));
  }
  EXPECT_NEAR(kmv.EstimateDistinct() / static_cast<double>(counts.size()),
              1.0, 0.15);
}

TEST(IntegrationTest, AllTopologiesAgreeOnGuarantees) {
  const auto stream = Workload();
  const auto truth = ExactCounts(stream);
  const auto shards = PartitionStream(stream, 32, PartitionPolicy::kRandom, 2);
  for (MergeTopology topology : kAllTopologies) {
    auto parts = SummarizeShards(
        shards, [] { return MisraGries::ForEpsilon(0.005); });
    Rng rng(3);
    const MisraGries merged = MergeAll(std::move(parts), topology, &rng);
    const uint64_t error = merged.ErrorBound();
    EXPECT_LE(error, static_cast<uint64_t>(0.005 * 100000)) << ToString(topology);
    for (size_t i = 0; i < 10; ++i) {
      const auto [item, count] = truth[i];
      EXPECT_LE(merged.LowerEstimate(item), count);
      EXPECT_LE(count, merged.LowerEstimate(item) + error);
    }
  }
}

}  // namespace
}  // namespace mergeable
