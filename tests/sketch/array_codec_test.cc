// Golden tests for the counter-array codecs. Every array summary writes
// its counters as one little-endian block; the formats were defined one
// PutU64 / PutI64 per counter, and these tests hold the block to that.
//
//   * Reference round trips: a per-element encoding written here, for
//     counters drawn from fixed seeds, must decode and re-encode to the
//     same bytes (both directions of the bulk codec, every format).
//   * Stream digests: sketches built from fixed-seed streams must keep
//     the exact bytes (length and FNV-1a digest) the per-element codecs
//     produced.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/elastic/elastic_count_min.h"
#include "mergeable/elastic/elastic_count_sketch.h"
#include "mergeable/sketch/ams.h"
#include "mergeable/sketch/bloom.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/sketch/count_sketch.h"
#include "mergeable/sketch/dyadic_count_min.h"
#include "mergeable/sketch/kmv.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

constexpr uint32_t kCountMinMagic = 0x31304d43;        // "CM01"
constexpr uint32_t kCountSketchMagic = 0x31305343;     // "CS01"
constexpr uint32_t kAmsMagic = 0x31304d41;             // "AM01"
constexpr uint32_t kBloomMagic = 0x31304642;           // "BF01"
constexpr uint32_t kDyadicMagic = 0x31304344;          // "DC01"
constexpr uint32_t kKmvMagic = 0x3130564b;             // "KV01"
constexpr uint32_t kElasticCountMinMagic = 0x314d4345;     // "ECM1"
constexpr uint32_t kElasticCountSketchMagic = 0x31534345;  // "ECS1"

std::vector<uint64_t> RandomWords(Rng& rng, size_t count) {
  std::vector<uint64_t> words(count);
  for (uint64_t& word : words) word = rng.Next();
  return words;
}

std::vector<int64_t> RandomSigned(Rng& rng, size_t count, int64_t bound) {
  std::vector<int64_t> values(count);
  for (int64_t& value : values) value = rng.UniformInt(-bound, bound);
  return values;
}

void PutEach(ByteWriter& writer, const std::vector<uint64_t>& words) {
  for (uint64_t word : words) writer.PutU64(word);
}

void PutEach(ByteWriter& writer, const std::vector<int64_t>& values) {
  for (int64_t value : values) writer.PutI64(value);
}

void PutCountMin(ByteWriter& writer, uint32_t depth, uint32_t width,
                 uint32_t update, uint64_t seed, uint64_t n,
                 const std::vector<uint64_t>& counters) {
  writer.PutU32(kCountMinMagic);
  writer.PutU32(depth);
  writer.PutU32(width);
  writer.PutU32(update);
  writer.PutU64(seed);
  writer.PutU64(n);
  PutEach(writer, counters);
}

// Decodes `reference`, re-encodes it, and expects the same bytes.
template <typename S>
void ExpectReencodesIdentically(const std::vector<uint8_t>& reference) {
  ByteReader reader(reference);
  std::optional<S> decoded = S::DecodeFrom(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(reader.Exhausted());
  ByteWriter writer;
  decoded->EncodeTo(writer);
  EXPECT_EQ(writer.bytes(), reference);
}

TEST(ArrayCodecTest, CountMinMatchesPerElementReference) {
  Rng rng(1);
  for (uint32_t update : {0u, 1u}) {
    ByteWriter reference;
    PutCountMin(reference, 4, 2048, update, /*seed=*/7, rng.Next(),
                RandomWords(rng, 4 * 2048));
    ExpectReencodesIdentically<CountMinSketch>(reference.bytes());
  }
}

TEST(ArrayCodecTest, CountSketchMatchesPerElementReference) {
  Rng rng(2);
  ByteWriter reference;
  reference.PutU32(kCountSketchMagic);
  reference.PutU32(5);
  reference.PutU32(512);
  reference.PutU64(/*seed=*/9);
  reference.PutU64(rng.Next());
  PutEach(reference, RandomSigned(rng, 5 * 512, int64_t{1} << 62));
  ExpectReencodesIdentically<CountSketch>(reference.bytes());
}

TEST(ArrayCodecTest, AmsMatchesPerElementReference) {
  Rng rng(3);
  ByteWriter reference;
  reference.PutU32(kAmsMagic);
  reference.PutU32(5);
  reference.PutU32(64);
  reference.PutU64(/*seed=*/13);
  PutEach(reference, RandomSigned(rng, 5 * 64, int64_t{1} << 62));
  ExpectReencodesIdentically<AmsSketch>(reference.bytes());
}

TEST(ArrayCodecTest, BloomMatchesPerElementReference) {
  Rng rng(4);
  constexpr uint64_t kBits = 1000;  // 16 words, the last one partial.
  std::vector<uint64_t> words = RandomWords(rng, (kBits + 63) / 64);
  words.back() &= (uint64_t{1} << (kBits % 64)) - 1;
  ByteWriter reference;
  reference.PutU32(kBloomMagic);
  reference.PutU64(kBits);
  reference.PutU32(4);
  reference.PutU64(/*seed=*/17);
  reference.PutU64(/*added=*/rng.UniformInt(1000));
  PutEach(reference, words);
  ExpectReencodesIdentically<BloomFilter>(reference.bytes());
}

TEST(ArrayCodecTest, DyadicCountMinMatchesPerElementReference) {
  Rng rng(5);
  constexpr uint32_t kLogUniverse = 6;
  ByteWriter reference;
  reference.PutU32(kDyadicMagic);
  reference.PutU32(kLogUniverse);
  reference.PutU64(rng.Next());
  for (uint32_t level = 0; level <= kLogUniverse; ++level) {
    PutCountMin(reference, 3, 256, 0, /*seed=*/19 + level, rng.Next(),
                RandomWords(rng, 3 * 256));
  }
  ExpectReencodesIdentically<DyadicCountMin>(reference.bytes());
}

TEST(ArrayCodecTest, KmvMatchesPerElementReference) {
  Rng rng(6);
  std::vector<uint64_t> hashes = RandomWords(rng, 200);
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  ByteWriter reference;
  reference.PutU32(kKmvMagic);
  reference.PutU32(256);
  reference.PutU64(/*seed=*/29);
  reference.PutU32(static_cast<uint32_t>(hashes.size()));
  PutEach(reference, hashes);
  ExpectReencodesIdentically<KmvSketch>(reference.bytes());
}

TEST(ArrayCodecTest, KmvRejectsDuplicateHashesInAnyOrder) {
  ByteWriter reference;
  reference.PutU32(kKmvMagic);
  reference.PutU32(256);
  reference.PutU64(/*seed=*/29);
  reference.PutU32(4);
  PutEach(reference, std::vector<uint64_t>{9, 3, 7, 3});  // Not adjacent.
  ByteReader reader(reference.bytes());
  EXPECT_FALSE(KmvSketch::DecodeFrom(reader).has_value());
}

// Elastic levels must pass the decoder's invariants: per row, a Count-Min
// level's counters sum to its mass, and no Count Sketch cell exceeds it.
TEST(ArrayCodecTest, ElasticCountMinMatchesPerElementReference) {
  Rng rng(7);
  constexpr uint32_t kDepth = 3;
  ByteWriter reference;
  reference.PutU32(kElasticCountMinMagic);
  reference.PutU32(kDepth);
  reference.PutU32(/*width=*/64);
  reference.PutU64(/*seed=*/23);
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> levels;
  uint64_t n = 0;
  for (uint32_t width : {8u, 64u}) {
    std::vector<uint64_t> row(width);
    for (uint64_t& cell : row) cell = rng.UniformInt(uint64_t{1} << 40);
    std::vector<uint64_t> counters;
    for (uint32_t r = 0; r < kDepth; ++r) {
      std::shuffle(row.begin(), row.end(), rng);  // Same sum every row.
      counters.insert(counters.end(), row.begin(), row.end());
    }
    for (uint64_t cell : row) n += cell;
    levels.emplace_back(width, std::move(counters));
  }
  reference.PutU64(n);
  reference.PutU32(static_cast<uint32_t>(levels.size()));
  for (const auto& [width, counters] : levels) {
    uint64_t mass = 0;
    for (uint32_t cell = 0; cell < width; ++cell) mass += counters[cell];
    reference.PutU32(width);
    reference.PutU64(mass);
    PutEach(reference, counters);
  }
  ExpectReencodesIdentically<ElasticCountMin>(reference.bytes());
}

TEST(ArrayCodecTest, ElasticCountSketchMatchesPerElementReference) {
  Rng rng(8);
  constexpr uint32_t kDepth = 3;
  constexpr uint64_t kMass = uint64_t{1} << 40;
  ByteWriter reference;
  reference.PutU32(kElasticCountSketchMagic);
  reference.PutU32(kDepth);
  reference.PutU32(/*width=*/64);
  reference.PutU64(/*seed=*/31);
  reference.PutU64(2 * kMass);
  reference.PutU32(2);
  for (uint32_t width : {16u, 64u}) {
    reference.PutU32(width);
    reference.PutU64(kMass);
    PutEach(reference, RandomSigned(rng, kDepth * width, kMass));
  }
  ExpectReencodesIdentically<ElasticCountSketch>(reference.bytes());
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

template <typename S>
std::vector<uint8_t> Encode(const S& sketch) {
  ByteWriter writer;
  sketch.EncodeTo(writer);
  return writer.TakeBytes();
}

TEST(ArrayCodecTest, StreamBuiltSketchesKeepTheirBytes) {
  Rng rng(42);
  auto item = [&rng] { return rng.UniformInt(5000); };

  CountMinSketch plain(4, 2048, 7);
  CountMinSketch conservative(4, 512, 8, CountMinUpdate::kConservative);
  CountSketch count_sketch(5, 512, 9);
  AmsSketch ams(5, 64, 13);
  BloomFilter bloom(10000, 4, 17);
  DyadicCountMin dyadic(16, 3, 256, 19);
  KmvSketch kmv(256, 29);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t x = item();
    const uint64_t weight = 1 + rng.UniformInt(4);
    plain.Update(x, weight);
    conservative.Update(x, weight);
    count_sketch.Update(x, rng.Bernoulli(0.5) ? 1 : -1);
    ams.Update(x, 1);
    bloom.Add(x);
    dyadic.Update(x % (uint64_t{1} << 16), weight);
    kmv.Add(x);
  }
  ElasticCountMin elastic_cm(4, 256, 23);
  ElasticCountSketch elastic_cs(4, 256, 31);
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 5000; ++i) {
      const uint64_t x = item();
      elastic_cm.Update(x, 1 + rng.UniformInt(4));
      elastic_cs.Update(x, rng.Bernoulli(0.5) ? 2 : -1);
    }
    if (phase == 0) {
      elastic_cm.Shrink(64);
      elastic_cs.Shrink(64);
    } else if (phase == 1) {
      elastic_cm.Expand(512);
      elastic_cs.Expand(512);
    }
  }

  struct Golden {
    std::string name;
    std::vector<uint8_t> bytes;
    size_t size;
    uint64_t digest;
  };
  const std::vector<Golden> goldens = {
      {"count_min", Encode(plain),
       65568, 0x3245157a65f819b6ULL},
      {"count_min_conservative", Encode(conservative),
       16416, 0xb33b121721ebe194ULL},
      {"count_sketch", Encode(count_sketch),
       20508, 0x2b7bada00732b4ffULL},
      {"ams", Encode(ams),
       2580, 0x03677300c2155cc0ULL},
      {"bloom", Encode(bloom),
       1288, 0x9e876c1b6397c3faULL},
      {"dyadic_count_min", Encode(dyadic),
       105008, 0x89622bde86800cceULL},
      {"kmv", Encode(kmv),
       2068, 0x5ce84db7659953ebULL},
      {"elastic_count_min", Encode(elastic_cm),
       18488, 0x130744177f07b1b1ULL},
      {"elastic_count_sketch", Encode(elastic_cs),
       18488, 0x4db5487e74bebc7aULL},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(golden.bytes.size(), golden.size) << golden.name;
    EXPECT_EQ(Fnv1a(golden.bytes), golden.digest)
        << golden.name << " 0x" << std::hex << Fnv1a(golden.bytes);
  }
}

}  // namespace
}  // namespace mergeable
