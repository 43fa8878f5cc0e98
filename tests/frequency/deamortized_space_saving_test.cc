#include "mergeable/frequency/deamortized_space_saving.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/frequency/space_saving.h"
#include "mergeable/stream/generators.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

std::map<uint64_t, uint64_t> TrueCounts(const std::vector<uint64_t>& stream) {
  std::map<uint64_t, uint64_t> counts;
  for (uint64_t item : stream) ++counts[item];
  return counts;
}

template <typename S>
std::vector<uint8_t> Encode(const S& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

template <typename S>
S DecodeOrDie(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  auto decoded = S::DecodeFrom(reader);
  EXPECT_TRUE(decoded.has_value());
  return std::move(*decoded);
}

// Every invariant the class promises, checked against exact counts:
// counts are lower bounds, count + slack is an upper bound, untracked
// mass is below slack, and slack is below n / (k+1).
void CheckAgainstExact(const DeamortizedSpaceSaving& summary,
                       const std::map<uint64_t, uint64_t>& exact,
                       uint64_t n) {
  ASSERT_EQ(summary.n(), n);
  const uint64_t slack = summary.UnderSlack();
  EXPECT_LE(slack, n / static_cast<uint64_t>(summary.guarantee() + 1));
  uint64_t tracked_sum = 0;
  for (const Counter& counter : summary.Counters()) {
    const auto it = exact.find(counter.item);
    const uint64_t truth = it == exact.end() ? 0 : it->second;
    EXPECT_LE(counter.count, truth) << "item " << counter.item;
    EXPECT_GE(counter.count + slack, truth) << "item " << counter.item;
    tracked_sum += counter.count;
  }
  EXPECT_LE(tracked_sum, n);
  for (const auto& [item, truth] : exact) {
    EXPECT_LE(summary.Count(item), truth);
    EXPECT_GE(summary.UpperEstimate(item), truth);
    EXPECT_LE(summary.LowerEstimate(item), truth);
    if (summary.Count(item) == 0) {
      EXPECT_LE(truth, slack) << "untracked item " << item;
    }
  }
}

TEST(DeamortizedSpaceSavingTest, SmallStreamIsExact) {
  DeamortizedSpaceSaving summary(8);  // k = 4, C = 8.
  for (uint64_t item : {1u, 1u, 2u, 3u, 1u}) summary.Update(item);
  EXPECT_EQ(summary.n(), 5u);
  EXPECT_EQ(summary.Count(1), 3u);
  EXPECT_EQ(summary.Count(2), 1u);
  EXPECT_EQ(summary.UnderSlack(), 0u);
  EXPECT_EQ(summary.LowerEstimate(1), 3u);
  EXPECT_EQ(summary.UpperEstimate(1), 3u);
  EXPECT_EQ(summary.swaps(), 0u);
}

TEST(DeamortizedSpaceSavingTest, CapacityNormalization) {
  // The capacity field is interpreted like SS01's: k = max(2, ceil(c/2)).
  EXPECT_EQ(DeamortizedSpaceSaving(2).guarantee(), 2);
  EXPECT_EQ(DeamortizedSpaceSaving(2).capacity(), 4);
  EXPECT_EQ(DeamortizedSpaceSaving(5).guarantee(), 3);
  EXPECT_EQ(DeamortizedSpaceSaving(5).capacity(), 6);
  EXPECT_EQ(DeamortizedSpaceSaving(64).guarantee(), 32);
  EXPECT_EQ(DeamortizedSpaceSaving(64).capacity(), 64);
}

TEST(DeamortizedSpaceSavingTest, ErrorBoundsOnAdversarialStreams) {
  for (const StreamKind kind :
       {StreamKind::kZipf, StreamKind::kUniform, StreamKind::kAdversarialMg,
        StreamKind::kMixed}) {
    StreamSpec spec;
    spec.kind = kind;
    spec.n = 20000;
    spec.universe = 2048;
    const auto stream = GenerateStream(spec, 17);
    const auto exact = TrueCounts(stream);

    DeamortizedSpaceSaving summary(64);
    for (uint64_t item : stream) summary.Update(item);
    CheckAgainstExact(summary, exact, stream.size());
    EXPECT_EQ(summary.maintenance_stalls(), 0u);
    EXPECT_GT(summary.swaps(), 0u);
  }
}

TEST(DeamortizedSpaceSavingTest, WeightedUpdatesRespectBounds) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 5000;
  spec.universe = 512;
  const auto stream = GenerateStream(spec, 99);
  Rng rng(1234);
  std::map<uint64_t, uint64_t> exact;
  uint64_t n = 0;
  DeamortizedSpaceSaving summary(32);
  for (uint64_t item : stream) {
    const uint64_t weight = 1 + rng.UniformInt(7);
    summary.Update(item, weight);
    exact[item] += weight;
    n += weight;
  }
  CheckAgainstExact(summary, exact, n);
}

// The effective state — and therefore every query and the encoding —
// must not depend on how far the incremental drain has progressed.
TEST(DeamortizedSpaceSavingTest, DrainProgressDoesNotChangeObservableState) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 4000;
  spec.universe = 1024;
  const auto stream = GenerateStream(spec, 7);

  DeamortizedSpaceSaving lazy(32);
  DeamortizedSpaceSaving eager(32);
  Rng rng(42);
  for (size_t i = 0; i < stream.size(); ++i) {
    lazy.Update(stream[i]);
    eager.Update(stream[i]);
    // Randomly push the eager instance's drain ahead (or finish it).
    if (rng.Bernoulli(0.1)) eager.MaintenanceStep(1 + rng.UniformInt(64));
    if (rng.Bernoulli(0.01)) eager.FinishMaintenance();
    if (i % 500 == 0) {
      EXPECT_EQ(Encode(lazy), Encode(eager)) << "at update " << i;
    }
    // Spot-check point queries under divergent drain progress.
    if (i % 97 == 0) {
      const uint64_t probe = stream[i];
      EXPECT_EQ(lazy.Count(probe), eager.Count(probe));
      EXPECT_EQ(lazy.UnderSlack(), eager.UnderSlack());
    }
  }
  EXPECT_EQ(Encode(lazy), Encode(eager));
}

TEST(DeamortizedSpaceSavingTest, CodecRoundTripIsByteIdentical) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 10000;
  spec.universe = 700;
  const auto stream = GenerateStream(spec, 3);
  DeamortizedSpaceSaving summary(32);
  for (uint64_t item : stream) summary.Update(item);

  const std::vector<uint8_t> bytes = Encode(summary);
  auto decoded = DecodeOrDie<DeamortizedSpaceSaving>(bytes);
  EXPECT_EQ(Encode(decoded), bytes);  // Canonical fixed point.
  EXPECT_EQ(decoded.n(), summary.n());
  EXPECT_EQ(decoded.UnderSlack(), summary.UnderSlack());
  EXPECT_EQ(decoded.Counters(), summary.Counters());
}

// Byte compatibility, both directions: SpaceSaving decodes this class's
// payloads, and this class decodes SpaceSaving's (applying the R2
// isomorphism so its lower-bound invariants keep holding).
TEST(DeamortizedSpaceSavingTest, ByteCompatibleWithSpaceSaving) {
  StreamSpec spec;
  spec.kind = StreamKind::kMixed;
  spec.n = 15000;
  spec.universe = 1024;
  const auto stream = GenerateStream(spec, 11);
  const auto exact = TrueCounts(stream);

  DeamortizedSpaceSaving deamortized(64);
  SpaceSaving amortized(64);
  for (uint64_t item : stream) {
    deamortized.Update(item);
    amortized.Update(item);
  }

  // D payload -> SpaceSaving: every SpaceSaving query keeps bracketing
  // the truth (counts are lower bounds, so Count + UnderSlack is still
  // the upper estimate SpaceSaving computes).
  auto crossed = DecodeOrDie<SpaceSaving>(Encode(deamortized));
  EXPECT_EQ(crossed.n(), deamortized.n());
  for (const auto& [item, truth] : exact) {
    EXPECT_GE(crossed.UpperEstimate(item), truth);
  }

  // SpaceSaving payload -> D: the isomorphism folds the minimum into
  // theta; bounds hold against the same stream.
  auto back = DecodeOrDie<DeamortizedSpaceSaving>(Encode(amortized));
  EXPECT_EQ(back.n(), amortized.n());
  for (const auto& [item, truth] : exact) {
    EXPECT_GE(back.UpperEstimate(item), truth);
    EXPECT_LE(back.LowerEstimate(item), truth);
  }
  // And the re-encoding is a valid, stable payload.
  const auto bytes = Encode(back);
  auto twice = DecodeOrDie<DeamortizedSpaceSaving>(bytes);
  EXPECT_EQ(Encode(twice), bytes);
}

TEST(DeamortizedSpaceSavingTest, RejectsMalformedPayloads) {
  DeamortizedSpaceSaving summary(8);
  for (uint64_t i = 0; i < 100; ++i) summary.Update(i % 13);
  std::vector<uint8_t> bytes = Encode(summary);

  {  // Truncation.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 1);
    ByteReader reader(cut);
    EXPECT_FALSE(DeamortizedSpaceSaving::DecodeFrom(reader).has_value());
  }
  {  // Trailing garbage.
    std::vector<uint8_t> extra = bytes;
    extra.push_back(0);
    ByteReader reader(extra);
    EXPECT_FALSE(DeamortizedSpaceSaving::DecodeFrom(reader).has_value());
  }
  {  // Bad magic.
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    ByteReader reader(bad);
    EXPECT_FALSE(DeamortizedSpaceSaving::DecodeFrom(reader).has_value());
  }
}

TEST(DeamortizedSpaceSavingTest, MergePreservesBounds) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 8000;
  spec.universe = 512;

  std::map<uint64_t, uint64_t> exact;
  uint64_t n = 0;
  std::vector<DeamortizedSpaceSaving> shards;
  for (uint64_t shard = 0; shard < 8; ++shard) {
    const auto stream = GenerateStream(spec, 100 + shard);
    DeamortizedSpaceSaving summary(64);
    for (uint64_t item : stream) {
      summary.Update(item);
      ++exact[item];
      ++n;
    }
    shards.push_back(std::move(summary));
  }
  // Balanced merge tree.
  while (shards.size() > 1) {
    std::vector<DeamortizedSpaceSaving> next;
    for (size_t i = 0; i + 1 < shards.size(); i += 2) {
      shards[i].Merge(shards[i + 1]);
      next.push_back(std::move(shards[i]));
    }
    if (shards.size() % 2 == 1) next.push_back(std::move(shards.back()));
    shards = std::move(next);
  }
  CheckAgainstExact(shards[0], exact, n);
}

TEST(DeamortizedSpaceSavingTest, MergeIsCommutativeAtByteLevel) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 6000;
  spec.universe = 256;
  const auto s1 = GenerateStream(spec, 1);
  const auto s2 = GenerateStream(spec, 2);

  DeamortizedSpaceSaving a(32), b(32);
  for (uint64_t item : s1) a.Update(item);
  for (uint64_t item : s2) b.Update(item);

  DeamortizedSpaceSaving ab = DecodeOrDie<DeamortizedSpaceSaving>(Encode(a));
  DeamortizedSpaceSaving ba = DecodeOrDie<DeamortizedSpaceSaving>(Encode(b));
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(Encode(ab), Encode(ba));
}

}  // namespace
}  // namespace mergeable
