// Unit tests for the elastic sketches: estimate brackets, lattice
// geometry under Expand/Shrink, exact-fold byte determinism, merge
// across mismatched widths, codec round trips, and the CHECK surface.
// Both types share one fold lattice (elastic/lattice.h), so every
// lattice case is one template body run under each type's suite.
//
// Accuracy assertions here are deterministic per seed (the suite seeds
// are part of the test); the ≥50-stream statistical sweep lives in
// elastic_resize_test.cc.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

template <typename S>
std::vector<uint8_t> Encode(const S& sketch) {
  ByteWriter writer;
  sketch.EncodeTo(writer);
  return writer.TakeBytes();
}

template <typename S>
S RoundTrip(const S& sketch) {
  const std::vector<uint8_t> bytes = Encode(sketch);
  ByteReader reader(bytes);
  auto decoded = S::DecodeFrom(reader);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(reader.Exhausted());
  return std::move(*decoded);
}

// A skewed stream shared by sketch and exact counter.
template <typename S>
std::map<uint64_t, uint64_t> FeedSkewed(S& sketch, uint64_t seed,
                                        int updates, int universe) {
  std::map<uint64_t, uint64_t> exact;
  Rng rng(seed);
  for (int i = 0; i < updates; ++i) {
    const uint64_t item = rng.Bernoulli(0.6)
                              ? rng.UniformInt(universe / 10 + 1)
                              : rng.UniformInt(universe);
    sketch.Update(item);
    ++exact[item];
  }
  return exact;
}

// FNV-1a over the encoding: a digest that does not depend on the
// library's own checksum kernels.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// ErrorBound() of a single-level sketch of `width` that absorbed mass n.
double SingleLevelBound(const ElasticCountMin&, double n, double width) {
  return std::exp(1.0) * n / width;
}
double SingleLevelBound(const ElasticCountSketch&, double n, double width) {
  return std::sqrt(3.0 * n * n / width);
}

// ---- The lattice, run for both types ----

template <typename S>
void ExpandOpensFinerLevelAndKeepsOldMassBudget() {
  S sketch(4, 64, /*seed=*/7);
  for (int i = 0; i < 1000; ++i) sketch.Update(i % 40);
  const double before = sketch.ErrorBound();
  sketch.Expand(256);
  EXPECT_EQ(sketch.width(), 256);
  EXPECT_EQ(sketch.num_levels(), 2u);
  // Expanding re-routes nothing: the budget of existing mass is
  // unchanged until new updates land at the finer level.
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(), before);
  for (int i = 0; i < 1000; ++i) sketch.Update(i % 40);
  // New mass at width 256 costs less than at 64: the combined budget is
  // strictly better than staying at 64 would have been.
  EXPECT_LT(sketch.ErrorBound(), SingleLevelBound(sketch, 2000.0, 64.0));
  EXPECT_EQ(sketch.n(), 2000u);
}

template <typename S>
void ShrinkAfterExpandFoldsTheWholeLattice() {
  S sketch(4, 64, /*seed=*/21);
  for (int i = 0; i < 500; ++i) sketch.Update(i % 30);
  sketch.Expand(512);
  for (int i = 0; i < 500; ++i) sketch.Update(i % 30);
  ASSERT_EQ(sketch.num_levels(), 2u);
  sketch.Shrink(32);
  EXPECT_EQ(sketch.width(), 32);
  EXPECT_EQ(sketch.num_levels(), 1u);
  EXPECT_EQ(sketch.n(), 1000u);
  // All mass now at width 32.
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(), SingleLevelBound(sketch, 1000.0, 32.0));
}

template <typename S>
void CodecRoundTripsMultiLevelLattice() {
  S sketch(4, 64, /*seed=*/33);
  FeedSkewed(sketch, 50, 1000, 100);
  sketch.Expand(256);
  FeedSkewed(sketch, 51, 1000, 100);
  const S decoded = RoundTrip(sketch);
  EXPECT_EQ(decoded.n(), sketch.n());
  EXPECT_EQ(decoded.width(), sketch.width());
  EXPECT_EQ(decoded.num_levels(), sketch.num_levels());
  EXPECT_DOUBLE_EQ(decoded.ErrorBound(), sketch.ErrorBound());
  // Canonical: the round trip is a byte fixed point.
  EXPECT_EQ(Encode(decoded), Encode(sketch));
  for (uint64_t item = 0; item < 100; ++item) {
    EXPECT_EQ(decoded.Estimate(item), sketch.Estimate(item));
  }
}

template <typename S>
void DecodeRejectsTruncationsAndBitFlips() {
  S sketch(3, 32, /*seed=*/2);
  FeedSkewed(sketch, 60, 300, 50);
  sketch.Expand(128);
  FeedSkewed(sketch, 61, 300, 50);
  const std::vector<uint8_t> bytes = Encode(sketch);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    ByteReader reader(truncated);
    auto decoded = S::DecodeFrom(reader);
    EXPECT_FALSE(decoded.has_value() && reader.Exhausted()) << cut;
  }
  // Corrupting a counter breaks the level's cell check (CM: a row's sum
  // is the level mass; CS: no cell exceeds it).
  std::vector<uint8_t> corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0xff;
  ByteReader reader(corrupt);
  EXPECT_FALSE(S::DecodeFrom(reader).has_value());
}

template <typename S>
void ChecksGuardTheLattice() {
  ASSERT_DEATH(S(4, 48, 1), "power of two");
  S sketch(4, 64, /*seed=*/1);
  ASSERT_DEATH(sketch.Shrink(64), "smaller");
  ASSERT_DEATH(sketch.Expand(64), "larger");
  ASSERT_DEATH(sketch.Shrink(33), "power of two");
  S other_seed(4, 64, /*seed=*/2);
  ASSERT_DEATH(sketch.Merge(other_seed), "depth and seed");
}

// A decoded header claims a level of depth x width counters but carries
// none: decoding allocates only what the payload holds.
template <typename S>
void HeaderOnlyPayloadAllocatesNoCounters() {
  const std::vector<uint8_t> empty = Encode(S(4, 1, /*seed=*/3));
  ByteReader magic_reader(empty);
  uint32_t magic = 0;
  ASSERT_TRUE(magic_reader.GetU32(&magic));
  ByteWriter header;
  header.PutU32(magic);
  header.PutU32(4);
  header.PutU32(1u << 20);
  header.PutU64(3);
  header.PutU64(0);  // n
  header.PutU32(0);  // levels
  const std::vector<uint8_t> bytes = header.TakeBytes();
  ASSERT_EQ(bytes.size(), 32u);
  ByteReader reader(bytes);
  const std::optional<S> decoded = S::DecodeFrom(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->width(), 1 << 20);
  EXPECT_EQ(decoded->num_levels(), 1u);
  EXPECT_EQ(decoded->TotalCounters(), 0u);
  EXPECT_EQ(Encode(*decoded), bytes);
}

// The encodings after each step of a fixed Update -> Expand -> Update
// -> Shrink -> mismatched-width Merge script, pinned by length and
// FNV-1a digest. Inputs come from Rng integers only, so the bytes do not
// depend on the platform's libm.
template <typename S, typename Weight>
void ExpectPinnedScriptBytes(Weight weight, size_t size, uint64_t digest) {
  Rng rng(2024);
  const auto feed = [&](S& sketch, int updates) {
    for (int i = 0; i < updates; ++i) {
      const uint64_t item = rng.UniformInt(400);
      sketch.Update(item, weight(rng.UniformInt(5)));
    }
  };
  std::vector<uint8_t> all;
  const auto record = [&all](const S& sketch) {
    const std::vector<uint8_t> bytes = Encode(sketch);
    all.insert(all.end(), bytes.begin(), bytes.end());
  };
  S sketch(4, 64, /*seed=*/77);
  feed(sketch, 600);
  record(sketch);
  sketch.Expand(256);
  record(sketch);
  feed(sketch, 600);
  record(sketch);
  sketch.Shrink(32);
  record(sketch);
  S other(4, 16, /*seed=*/77);
  feed(other, 300);
  other.Expand(128);
  feed(other, 300);
  sketch.Merge(other);
  record(sketch);
  EXPECT_EQ(all.size(), size);
  EXPECT_EQ(Fnv1a(all), digest) << "0x" << std::hex << Fnv1a(all);
}

// ---- ElasticCountMin ----

TEST(ElasticCountMinTest, EstimateBracketsExactCounts) {
  ElasticCountMin sketch(4, 512, /*seed=*/11);
  const auto exact = FeedSkewed(sketch, 100, 5000, 300);
  EXPECT_EQ(sketch.n(), 5000u);
  for (const auto& [item, count] : exact) {
    const uint64_t estimate = sketch.Estimate(item);
    EXPECT_GE(estimate, count) << item;
    EXPECT_LE(static_cast<double>(estimate),
              static_cast<double>(count) + sketch.ErrorBound())
        << item;
  }
  // An item never seen keeps the one-sided bound.
  EXPECT_LE(static_cast<double>(sketch.Estimate(1u << 30)),
            sketch.ErrorBound());
}

TEST(ElasticCountMinTest, ErrorBoundMatchesClassicFormulaSingleLevel) {
  ElasticCountMin sketch(4, 256, /*seed=*/1);
  for (int i = 0; i < 1000; ++i) sketch.Update(i % 50);
  // e · n / w for a never-resized sketch.
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(),
                   std::exp(1.0) * 1000.0 / 256.0);
}

TEST(ElasticCountMinTest, ExpandOpensFinerLevelAndKeepsOldMassBudget) {
  ExpandOpensFinerLevelAndKeepsOldMassBudget<ElasticCountMin>();
}

TEST(ElasticCountMinTest, ShrinkIsByteIdenticalToNativeNarrowSketch) {
  // The fold linchpin, asserted at the byte level: stream wide, shrink,
  // and the result is indistinguishable from having streamed narrow.
  for (const uint64_t seed : {3u, 4u, 5u}) {
    ElasticCountMin wide(4, 1024, seed);
    ElasticCountMin narrow(4, 64, seed);
    Rng rng_a(900 + seed);
    Rng rng_b(900 + seed);
    for (int i = 0; i < 4000; ++i) {
      wide.Update(rng_a.UniformInt(500));
      narrow.Update(rng_b.UniformInt(500));
    }
    wide.Shrink(64);
    EXPECT_EQ(wide.width(), 64);
    EXPECT_EQ(wide.num_levels(), 1u);
    EXPECT_EQ(Encode(wide), Encode(narrow)) << "seed " << seed;
    EXPECT_DOUBLE_EQ(wide.ErrorBound(), narrow.ErrorBound());
  }
}

TEST(ElasticCountMinTest, ShrinkAfterExpandFoldsTheWholeLattice) {
  ShrinkAfterExpandFoldsTheWholeLattice<ElasticCountMin>();
}

TEST(ElasticCountMinTest, MergeMismatchedWidthsKeepsBracket) {
  ElasticCountMin a(4, 256, /*seed=*/9);
  ElasticCountMin b(4, 1024, /*seed=*/9);
  auto exact = FeedSkewed(a, 41, 3000, 200);
  for (const auto& [item, count] : FeedSkewed(b, 42, 2000, 200)) {
    exact[item] += count;
  }
  a.Merge(b);
  EXPECT_EQ(a.width(), 256);
  EXPECT_EQ(a.n(), 5000u);
  for (const auto& [item, count] : exact) {
    EXPECT_GE(a.Estimate(item), count);
    EXPECT_LE(static_cast<double>(a.Estimate(item)),
              static_cast<double>(count) + a.ErrorBound());
  }
}

TEST(ElasticCountMinTest, CodecRoundTripsMultiLevelLattice) {
  CodecRoundTripsMultiLevelLattice<ElasticCountMin>();
}

TEST(ElasticCountMinTest, DecodeRejectsTruncationsAndBitFlips) {
  DecodeRejectsTruncationsAndBitFlips<ElasticCountMin>();
}

TEST(ElasticCountMinTest, ForEpsilonDeltaMeetsRequestedBound) {
  const ElasticCountMin sketch =
      ElasticCountMin::ForEpsilonDelta(0.01, 0.05, /*seed=*/5);
  // Width is e/ε rounded up to a power of two: the realized per-item
  // bound e·n/width is at least as tight as ε·n.
  EXPECT_GE(sketch.width() * 0.01, std::exp(1.0));
  EXPECT_GE(sketch.depth(), 3);
}

TEST(ElasticCountMinDeathTest, ChecksGuardTheLattice) {
  ChecksGuardTheLattice<ElasticCountMin>();
}

TEST(ElasticCountMinTest, HeaderOnlyPayloadAllocatesNoCounters) {
  HeaderOnlyPayloadAllocatesNoCounters<ElasticCountMin>();
}

TEST(ElasticCountMinTest, ResizeAndMergeScriptKeepsItsBytes) {
  ExpectPinnedScriptBytes<ElasticCountMin>(
      [](uint64_t draw) { return 1 + draw; }, 2363, 0x2f588e1136d1bc89ULL);
}

// ---- ElasticCountSketch ----

TEST(ElasticCountSketchTest, EstimateWithinErrorBound) {
  ElasticCountSketch sketch(5, 512, /*seed=*/17);
  std::map<uint64_t, uint64_t> exact;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t item =
        rng.Bernoulli(0.5) ? rng.UniformInt(20) : rng.UniformInt(300);
    sketch.Update(item);
    ++exact[item];
  }
  for (const auto& [item, count] : exact) {
    const double err = std::abs(sketch.Estimate(item) -
                                static_cast<int64_t>(count));
    EXPECT_LE(err, sketch.ErrorBound()) << item;
  }
}

TEST(ElasticCountSketchTest, SupportsNegativeWeightsAcrossResize) {
  // Turnstile stream: inserts at one width, deletes after a shrink.
  ElasticCountSketch sketch(5, 256, /*seed=*/23);
  for (int i = 0; i < 400; ++i) sketch.Update(i % 8, 2);
  sketch.Shrink(64);
  for (int i = 0; i < 400; ++i) sketch.Update(i % 8, -1);
  // Each of the 8 items: 50·2 - 50·1 = 50.
  for (uint64_t item = 0; item < 8; ++item) {
    EXPECT_LE(std::abs(sketch.Estimate(item) - 50), sketch.ErrorBound());
  }
}

TEST(ElasticCountSketchTest, ShrinkIsByteIdenticalToNativeNarrowSketch) {
  for (const uint64_t seed : {13u, 14u}) {
    ElasticCountSketch wide(5, 2048, seed);
    ElasticCountSketch narrow(5, 128, seed);
    Rng rng_a(70 + seed);
    Rng rng_b(70 + seed);
    for (int i = 0; i < 3000; ++i) {
      wide.Update(rng_a.UniformInt(400));
      narrow.Update(rng_b.UniformInt(400));
    }
    wide.Shrink(128);
    EXPECT_EQ(Encode(wide), Encode(narrow)) << "seed " << seed;
  }
}

TEST(ElasticCountSketchTest, MergeMismatchedWidthsStaysUnbiasedish) {
  ElasticCountSketch a(5, 128, /*seed=*/31);
  ElasticCountSketch b(5, 1024, /*seed=*/31);
  std::map<uint64_t, int64_t> exact;
  Rng rng(19);
  for (int i = 0; i < 2500; ++i) {
    const uint64_t item = rng.UniformInt(150);
    a.Update(item);
    ++exact[item];
  }
  for (int i = 0; i < 2500; ++i) {
    const uint64_t item = rng.UniformInt(150);
    b.Update(item);
    ++exact[item];
  }
  a.Merge(b);
  EXPECT_EQ(a.width(), 128);
  EXPECT_EQ(a.n(), 5000u);
  for (const auto& [item, count] : exact) {
    EXPECT_LE(std::abs(a.Estimate(item) - count), a.ErrorBound()) << item;
  }
}

TEST(ElasticCountSketchTest, CodecRoundTripsAndRejectsCorruption) {
  ElasticCountSketch sketch(5, 64, /*seed=*/3);
  for (int i = 0; i < 500; ++i) sketch.Update(i % 60);
  sketch.Expand(256);
  for (int i = 0; i < 500; ++i) sketch.Update(i % 60, -1);
  const ElasticCountSketch decoded = RoundTrip(sketch);
  EXPECT_EQ(Encode(decoded), Encode(sketch));
  EXPECT_EQ(decoded.n(), 1000u);

  const std::vector<uint8_t> bytes = Encode(sketch);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    ByteReader reader(truncated);
    auto partial = ElasticCountSketch::DecodeFrom(reader);
    EXPECT_FALSE(partial.has_value() && reader.Exhausted()) << cut;
  }
}

TEST(ElasticCountSketchTest, ExpandOpensFinerLevelAndKeepsOldMassBudget) {
  ExpandOpensFinerLevelAndKeepsOldMassBudget<ElasticCountSketch>();
}

TEST(ElasticCountSketchTest, ShrinkAfterExpandFoldsTheWholeLattice) {
  ShrinkAfterExpandFoldsTheWholeLattice<ElasticCountSketch>();
}

TEST(ElasticCountSketchTest, CodecRoundTripsMultiLevelLattice) {
  CodecRoundTripsMultiLevelLattice<ElasticCountSketch>();
}

TEST(ElasticCountSketchTest, DecodeRejectsTruncationsAndBitFlips) {
  DecodeRejectsTruncationsAndBitFlips<ElasticCountSketch>();
}

TEST(ElasticCountSketchDeathTest, ChecksGuardTheLattice) {
  ChecksGuardTheLattice<ElasticCountSketch>();
}

TEST(ElasticCountSketchTest, HeaderOnlyPayloadAllocatesNoCounters) {
  HeaderOnlyPayloadAllocatesNoCounters<ElasticCountSketch>();
}

TEST(ElasticCountSketchTest, ResizeAndMergeScriptKeepsItsBytes) {
  // Weights in [-2, 2], zero included.
  ExpectPinnedScriptBytes<ElasticCountSketch>(
      [](uint64_t draw) { return static_cast<int64_t>(draw) - 2; }, 2363,
      0x0acb92176402c6d5ULL);
}

TEST(ElasticCountSketchTest, ErrorBoundTracksLatticeGeometry) {
  ElasticCountSketch sketch(5, 64, /*seed=*/41);
  for (int i = 0; i < 1000; ++i) sketch.Update(i % 100);
  // Single level: sqrt(3·n²/w).
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(),
                   std::sqrt(3.0 * 1000.0 * 1000.0 / 64.0));
  const double before = sketch.ErrorBound();
  sketch.Expand(1024);
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(), before);
  sketch.Shrink(32);
  EXPECT_DOUBLE_EQ(sketch.ErrorBound(),
                   std::sqrt(3.0 * 1000.0 * 1000.0 / 32.0));
}

}  // namespace
}  // namespace mergeable
