#include "mergeable/util/hash.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/wire.h"

namespace mergeable {
namespace {

TEST(MixHashTest, Deterministic) {
  EXPECT_EQ(MixHash(12345), MixHash(12345));
  EXPECT_EQ(MixHash(12345, 7), MixHash(12345, 7));
}

TEST(MixHashTest, SeedChangesOutput) {
  EXPECT_NE(MixHash(12345, 1), MixHash(12345, 2));
}

TEST(MixHashTest, NoCollisionsOnSmallRange) {
  // MixHash is a bijection, so distinct inputs cannot collide.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(MixHash(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(MixHashTest, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flipped = 0;
  constexpr int kTrials = 64;
  for (int bit = 0; bit < kTrials; ++bit) {
    const uint64_t a = MixHash(0x123456789abcdef0ULL);
    const uint64_t b = MixHash(0x123456789abcdef0ULL ^ (uint64_t{1} << bit));
    total_flipped += std::popcount(a ^ b);
  }
  const double mean_flipped = static_cast<double>(total_flipped) / kTrials;
  EXPECT_GT(mean_flipped, 24.0);
  EXPECT_LT(mean_flipped, 40.0);
}

// MixHash is inline now; its values are the ones every stored frame and
// every hashed index was built with.
TEST(MixHashTest, ValuesArePinned) {
  EXPECT_EQ(MixHash(0x123456789abcdef0ULL), 0x18b8c062f6f42398ULL);
  EXPECT_EQ(MixHash(5, 7), 0xe79c6faf30eb1751ULL);
}

// ---- The checksum definition, spelled out ----

// Word `i` of `data`, assembled byte by byte (little-endian).
uint64_t ReferenceWord(const uint8_t* data, size_t i) {
  uint64_t word = 0;
  for (int b = 7; b >= 0; --b) word = (word << 8) | data[8 * i + b];
  return word;
}

// The serial chain every checksum used before the lanes, kept verbatim:
// each whole word in order, then the zero-padded tail word.
uint64_t SerialChain(uint64_t h, const uint8_t* data, size_t size) {
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | data[i + b];
    h = MixHash(word, h);
  }
  uint64_t tail = 0;
  for (size_t j = size; j > i; --j) tail = (tail << 8) | data[j - 1];
  return MixHash(tail, h);
}

// Below 64 bytes: the serial chain. From 64 bytes: lane k starts at
// MixHash(k, h) and takes word 4b + k of every whole 32-byte block b;
// the lanes fold into h in order 0..3, and the serial chain finishes
// the words and the tail after the last whole block.
uint64_t ReferenceChecksum(uint64_t h, const uint8_t* data, size_t size) {
  if (size < 64) return SerialChain(h, data, size);
  const size_t blocks = size / 32;
  uint64_t lanes[4];
  for (uint64_t k = 0; k < 4; ++k) lanes[k] = MixHash(k, h);
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t k = 0; k < 4; ++k) {
      lanes[k] = MixHash(ReferenceWord(data, 4 * b + k), lanes[k]);
    }
  }
  for (uint64_t lane : lanes) h = MixHash(lane, h);
  return SerialChain(h, data + 32 * blocks, size - 32 * blocks);
}

// FrameChecksum's header: shard id, epoch and length, then the body.
uint64_t FrameHeaderState(uint64_t shard_id, uint64_t epoch, size_t size) {
  uint64_t h = MixHash(shard_id, /*seed=*/0x52505431);
  h = MixHash(epoch, h);
  return MixHash(size, h);
}

uint64_t ReferenceFrameChecksum(uint64_t shard_id, uint64_t epoch,
                                const uint8_t* data, size_t size) {
  return ReferenceChecksum(FrameHeaderState(shard_id, epoch, size), data,
                           size);
}

std::vector<uint8_t> PatternBytes(size_t size, uint64_t seed) {
  std::vector<uint8_t> bytes(size);
  uint64_t state = seed;
  for (uint8_t& b : bytes) {
    state = MixHash(state, seed);
    b = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

TEST(ChecksumTest, MatchesTheReferenceAtEverySizeAndOffset) {
  const std::vector<uint8_t> bytes = PatternBytes(320 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 320; ++size) {
      const uint8_t* data = bytes.data() + offset;
      ASSERT_EQ(FrameChecksum(11, 22, data, size),
                ReferenceFrameChecksum(11, 22, data, size))
          << "offset=" << offset << " size=" << size;
    }
  }
  const std::vector<uint8_t> large = PatternBytes((64 << 10) + 5 + 8, 2);
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = large.data() + offset;
    const size_t size = (64 << 10) + 5;
    EXPECT_EQ(FrameChecksum(3, 4, data, size),
              ReferenceFrameChecksum(3, 4, data, size));
  }
}

// Short inputs keep the serial chain, so every frame under 64 bytes
// checksums exactly as it always has; from 64 bytes on the lanes are in
// use.
TEST(ChecksumTest, ShortInputsKeepTheSerialChain) {
  const std::vector<uint8_t> bytes = PatternBytes(128, 3);
  for (size_t size = 0; size < kChecksumLaneMinBytes; ++size) {
    EXPECT_EQ(FrameChecksum(5, 6, bytes.data(), size),
              SerialChain(FrameHeaderState(5, 6, size), bytes.data(), size))
        << "size=" << size;
  }
  for (size_t size = kChecksumLaneMinBytes; size <= 128; ++size) {
    EXPECT_NE(FrameChecksum(5, 6, bytes.data(), size),
              SerialChain(FrameHeaderState(5, 6, size), bytes.data(), size))
        << "size=" << size;
  }
}

// A silent change to the checksum definition changes these. The short
// input's value is the one the serial loop has always given; the large
// one goes through the lanes.
TEST(ChecksumTest, ValuesArePinned) {
  const std::vector<uint8_t> small = PatternBytes(40, 4);
  EXPECT_EQ(FrameChecksum(7, 9, small.data(), small.size()),
            0x040ac6dbee8d12dfULL);
  const std::vector<uint8_t> large = PatternBytes(1 << 20, 5);
  EXPECT_EQ(FrameChecksum(7, 9, large.data(), large.size()),
            0x8ade45569020d067ULL);
}

TEST(PolynomialHashTest, OutputWithinField) {
  PolynomialHash hash(4, /*seed=*/99);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(hash(x), PolynomialHash::kPrime);
  }
}

TEST(PolynomialHashTest, DeterministicPerSeed) {
  PolynomialHash a(3, 5);
  PolynomialHash b(3, 5);
  PolynomialHash c(3, 6);
  int differs = 0;
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(a(x), b(x));
    if (a(x) != c(x)) ++differs;
  }
  EXPECT_GT(differs, 90);
}

TEST(PolynomialHashTest, BoundedStaysInBound) {
  PolynomialHash hash(2, 123);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(hash.Bounded(x, 17), 17u);
  }
}

TEST(PolynomialHashTest, BoundedIsRoughlyUniform) {
  PolynomialHash hash(2, 321);
  constexpr uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> histogram(kBuckets, 0);
  for (int x = 0; x < kDraws; ++x) {
    ++histogram[hash.Bounded(static_cast<uint64_t>(x), kBuckets)];
  }
  for (int count : histogram) EXPECT_NEAR(count, kDraws / kBuckets, 600);
}

TEST(PolynomialHashTest, SignsAreBalanced) {
  PolynomialHash hash(4, 777);
  int positive = 0;
  constexpr int kDraws = 40000;
  for (int x = 0; x < kDraws; ++x) {
    const int sign = hash.Sign(static_cast<uint64_t>(x));
    ASSERT_TRUE(sign == 1 || sign == -1);
    if (sign == 1) ++positive;
  }
  EXPECT_NEAR(positive, kDraws / 2, 600);
}

TEST(PolynomialHashTest, PairwiseCollisionRateNearUniversal) {
  // For a 2-universal family, Pr[h(x) mod m == h(y) mod m] ~ 1/m.
  constexpr uint64_t kBuckets = 64;
  constexpr int kPairs = 3000;
  int collisions = 0;
  PolynomialHash hash(2, 2024);
  for (int i = 0; i < kPairs; ++i) {
    const auto x = static_cast<uint64_t>(2 * i);
    const auto y = static_cast<uint64_t>(2 * i + 1);
    if (hash.Bounded(x, kBuckets) == hash.Bounded(y, kBuckets)) ++collisions;
  }
  // Expected ~ kPairs / kBuckets = 47; allow generous slack.
  EXPECT_LT(collisions, 110);
}

TEST(PolynomialHashTest, FourWiseSignProductsAverageToZero) {
  // 4-wise independence implies E[s(a)s(b)s(c)s(d)] = 0 for distinct keys.
  double sum = 0.0;
  constexpr int kTrials = 200;
  for (int seed = 0; seed < kTrials; ++seed) {
    PolynomialHash hash(4, static_cast<uint64_t>(seed) * 31 + 1);
    sum += hash.Sign(1) * hash.Sign(2) * hash.Sign(3) * hash.Sign(4);
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.25);
}

TEST(PolynomialHashDeathTest, ZeroDegreeAborts) {
  EXPECT_DEATH(PolynomialHash(0, 1), "degree");
}

}  // namespace
}  // namespace mergeable
