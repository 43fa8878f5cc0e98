// The packed counter-array codec (ByteWriter::PutCounterArray) and the
// formats built on it. A counter array is a u8 cell width w in
// {1, 2, 4, 8}, then each cell little-endian in w bytes; w is the
// smallest width that holds every cell, signed cells zigzagged first.
//
//   * Reference round trips: a per-element encoding written here (the
//     width byte, then each cell one byte at a time), for counters drawn
//     from fixed seeds at every width, must decode and re-encode to the
//     same bytes (both directions of the codec, every format).
//   * The codec itself: every width boundary, signed and unsigned; a
//     width byte outside {1, 2, 4, 8}; a truncation at every byte; a
//     non-minimal width (accepted, re-encoded minimal: the decode-fuzz
//     harness's fixed point); a cell count the bytes cannot hold,
//     refused before anything is allocated.
//   * Stream digests: sketches built from fixed-seed streams must keep
//     their exact bytes (length and FNV-1a digest).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
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

// Bytes requested from operator new while `g_counting` is set: the
// allocation checks below measure what one decode asks for.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated{0};
}  // namespace

// Every replacement is out of line, so that GCC does not see malloc()
// and free() meet after inlining and call them mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace mergeable {
namespace {

constexpr uint32_t kCountMinMagic = 0x32304d43;        // "CM02"
constexpr uint32_t kCountSketchMagic = 0x32305343;     // "CS02"
constexpr uint32_t kAmsMagic = 0x32304d41;             // "AM02"
constexpr uint32_t kBloomMagic = 0x31304642;           // "BF01"
constexpr uint32_t kDyadicMagic = 0x32304344;          // "DC02"
constexpr uint32_t kKmvMagic = 0x3130564b;             // "KV01"
constexpr uint32_t kElasticCountMinMagic = 0x324d4345;     // "ECM2"
constexpr uint32_t kElasticCountSketchMagic = 0x32534345;  // "ECS2"

// Where each format's (first) width byte sits: after its header, and
// for the elastic ones after the first level's width and mass.
constexpr size_t kCountMinCells = 32;
constexpr size_t kCountSketchCells = 28;
constexpr size_t kAmsCells = 20;
constexpr size_t kElasticCells = 32 + 12;

std::vector<uint64_t> RandomWords(Rng& rng, size_t count) {
  std::vector<uint64_t> words(count);
  for (uint64_t& word : words) word = rng.Next();
  return words;
}

// `count` cells below 2^bits.
std::vector<uint64_t> RandomCells(Rng& rng, size_t count, int bits) {
  std::vector<uint64_t> cells = RandomWords(rng, count);
  if (bits < 64) {
    for (uint64_t& cell : cells) cell &= (uint64_t{1} << bits) - 1;
  }
  return cells;
}

std::vector<int64_t> RandomSigned(Rng& rng, size_t count, int64_t bound) {
  std::vector<int64_t> values(count);
  for (int64_t& value : values) value = rng.UniformInt(-bound, bound);
  return values;
}

// The reference definition of the format, one cell at a time.
uint64_t ZigZag(int64_t value) {
  return value >= 0 ? 2 * static_cast<uint64_t>(value)
                    : 2 * ~static_cast<uint64_t>(value) + 1;
}

std::vector<uint64_t> ZigZag(const std::vector<int64_t>& values) {
  std::vector<uint64_t> cells;
  for (int64_t value : values) cells.push_back(ZigZag(value));
  return cells;
}

uint8_t MinimalWidth(const std::vector<uint64_t>& cells) {
  uint64_t any = 0;
  for (uint64_t cell : cells) any |= cell;
  for (uint8_t width : {1, 2, 4}) {
    if (any >> (8 * width) == 0) return width;
  }
  return 8;
}

void PutCells(ByteWriter& writer, const std::vector<uint64_t>& cells,
              uint8_t width) {
  writer.PutRaw(&width, 1);
  for (uint64_t cell : cells) {
    for (int byte = 0; byte < width; ++byte) {
      const uint8_t out = static_cast<uint8_t>(cell >> (8 * byte));
      writer.PutRaw(&out, 1);
    }
  }
}

void PutPacked(ByteWriter& writer, const std::vector<uint64_t>& cells) {
  PutCells(writer, cells, MinimalWidth(cells));
}

void PutPacked(ByteWriter& writer, const std::vector<int64_t>& values) {
  PutPacked(writer, ZigZag(values));
}

void PutEach(ByteWriter& writer, const std::vector<uint64_t>& words) {
  for (uint64_t word : words) writer.PutU64(word);
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
  PutPacked(writer, counters);
}

std::vector<uint8_t> CountSketchReference(Rng& rng, int64_t bound) {
  ByteWriter reference;
  reference.PutU32(kCountSketchMagic);
  reference.PutU32(5);
  reference.PutU32(512);
  reference.PutU64(/*seed=*/9);
  reference.PutU64(rng.Next());
  PutPacked(reference, RandomSigned(rng, 5 * 512, bound));
  return reference.TakeBytes();
}

std::vector<uint8_t> AmsReference(Rng& rng, int64_t bound) {
  ByteWriter reference;
  reference.PutU32(kAmsMagic);
  reference.PutU32(5);
  reference.PutU32(64);
  reference.PutU64(/*seed=*/13);
  PutPacked(reference, RandomSigned(rng, 5 * 64, bound));
  return reference.TakeBytes();
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

// Whether S decodes exactly `bytes`, nothing left over.
template <typename S>
bool DecodesExactly(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  return S::DecodeFrom(reader).has_value() && reader.Exhausted();
}

// The signed bounds that put zigzagged cells at widths 1, 2, 4 and 8.
constexpr int64_t kSignedBounds[] = {100, 30000, int64_t{1} << 30,
                                     int64_t{1} << 62};

TEST(ArrayCodecTest, CountMinMatchesPerElementReference) {
  Rng rng(1);
  for (uint32_t update : {0u, 1u}) {
    for (int bits : {8, 16, 32, 64}) {
      ByteWriter reference;
      PutCountMin(reference, 4, 2048, update, /*seed=*/7, rng.Next(),
                  RandomCells(rng, 4 * 2048, bits));
      ASSERT_EQ(reference.bytes()[kCountMinCells], bits / 8);
      ExpectReencodesIdentically<CountMinSketch>(reference.bytes());
    }
  }
}

TEST(ArrayCodecTest, CountSketchMatchesPerElementReference) {
  Rng rng(2);
  for (int64_t bound : kSignedBounds) {
    ExpectReencodesIdentically<CountSketch>(CountSketchReference(rng, bound));
  }
}

TEST(ArrayCodecTest, AmsMatchesPerElementReference) {
  Rng rng(3);
  for (int64_t bound : kSignedBounds) {
    ExpectReencodesIdentically<AmsSketch>(AmsReference(rng, bound));
  }
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

// Every embedded Count-Min picks its own width.
TEST(ArrayCodecTest, DyadicCountMinMatchesPerElementReference) {
  Rng rng(5);
  constexpr uint32_t kLogUniverse = 6;
  ByteWriter reference;
  reference.PutU32(kDyadicMagic);
  reference.PutU32(kLogUniverse);
  reference.PutU64(rng.Next());
  for (uint32_t level = 0; level <= kLogUniverse; ++level) {
    PutCountMin(reference, 3, 256, 0, /*seed=*/19 + level, rng.Next(),
                RandomCells(rng, 3 * 256, 8 << (level % 4)));
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

// Elastic levels must pass the decoder's invariants: per row, a
// Count-Min level's counters sum to its mass, and a Count Sketch row's
// magnitudes sum to at most its mass. Each level has its own width.
TEST(ArrayCodecTest, ElasticCountMinMatchesPerElementReference) {
  Rng rng(7);
  constexpr uint32_t kDepth = 3;
  ByteWriter reference;
  reference.PutU32(kElasticCountMinMagic);
  reference.PutU32(kDepth);
  reference.PutU32(/*width=*/64);
  reference.PutU64(/*seed=*/23);
  struct Level {
    uint32_t width;
    uint64_t mass;
    std::vector<uint64_t> counters;
  };
  std::vector<Level> levels;
  uint64_t n = 0;
  for (auto [width, bits] : {std::pair{8u, 40}, std::pair{64u, 12}}) {
    std::vector<uint64_t> row = RandomCells(rng, width, bits);
    std::vector<uint64_t> counters;
    for (uint32_t r = 0; r < kDepth; ++r) {
      std::shuffle(row.begin(), row.end(), rng);  // Same sum every row.
      counters.insert(counters.end(), row.begin(), row.end());
    }
    uint64_t mass = 0;
    for (uint64_t cell : row) mass += cell;
    n += mass;
    levels.push_back({width, mass, std::move(counters)});
  }
  reference.PutU64(n);
  reference.PutU32(static_cast<uint32_t>(levels.size()));
  for (const Level& level : levels) {
    reference.PutU32(level.width);
    reference.PutU64(level.mass);
    PutPacked(reference, level.counters);
  }
  ASSERT_EQ(reference.bytes()[kElasticCells], 8);
  ExpectReencodesIdentically<ElasticCountMin>(reference.bytes());
}

TEST(ArrayCodecTest, ElasticCountSketchMatchesPerElementReference) {
  Rng rng(8);
  constexpr uint32_t kDepth = 3;
  ByteWriter reference;
  reference.PutU32(kElasticCountSketchMagic);
  reference.PutU32(kDepth);
  reference.PutU32(/*width=*/64);
  reference.PutU64(/*seed=*/31);
  struct Level {
    uint32_t width;
    uint64_t mass;
    std::vector<int64_t> counters;
  };
  std::vector<Level> levels;
  uint64_t n = 0;
  for (auto [width, bound] :
       {std::pair{16u, int64_t{1} << 40}, std::pair{64u, int64_t{100}}}) {
    Level level{width, 0, RandomSigned(rng, kDepth * width, bound)};
    // The mass is the largest row's sum of magnitudes.
    for (uint32_t r = 0; r < kDepth; ++r) {
      uint64_t row_sum = 0;
      for (uint32_t i = 0; i < width; ++i) {
        const int64_t cell = level.counters[r * width + i];
        row_sum += static_cast<uint64_t>(cell < 0 ? -cell : cell);
      }
      level.mass = std::max(level.mass, row_sum);
    }
    n += level.mass;
    levels.push_back(std::move(level));
  }
  reference.PutU64(n);
  reference.PutU32(static_cast<uint32_t>(levels.size()));
  for (const Level& level : levels) {
    reference.PutU32(level.width);
    reference.PutU64(level.mass);
    PutPacked(reference, level.counters);
  }
  ASSERT_EQ(reference.bytes()[kElasticCells], 8);
  ExpectReencodesIdentically<ElasticCountSketch>(reference.bytes());
}

// ---- The codec ----

// Encodes `cells`, expects the reference bytes at `width`, and decodes
// them back.
template <typename Word>
void ExpectWidth(const std::vector<Word>& cells, uint8_t width) {
  ByteWriter writer;
  writer.PutCounterArray(cells);
  ByteWriter reference;
  if constexpr (std::is_signed_v<Word>) {
    PutCells(reference, ZigZag(cells), width);
  } else {
    PutCells(reference, cells, width);
  }
  EXPECT_EQ(writer.bytes(), reference.bytes()) << cells[1];
  ByteReader reader(writer.bytes());
  std::vector<Word> back;
  ASSERT_TRUE(reader.GetCounterVector(cells.size(), &back));
  EXPECT_TRUE(reader.Exhausted());
  EXPECT_EQ(back, cells);
}

TEST(ArrayCodecTest, UnsignedCellsTakeTheNarrowestWidthThatHoldsThem) {
  const std::pair<uint64_t, uint8_t> cases[] = {
      {0, 1},
      {255, 1},
      {256, 2},
      {65535, 2},
      {65536, 4},
      {0xffffffffULL, 4},
      {uint64_t{1} << 32, 8},
      {~uint64_t{0}, 8},
  };
  for (const auto& [largest, width] : cases) {
    ExpectWidth(std::vector<uint64_t>{1, largest, 0, 3}, width);
  }
}

TEST(ArrayCodecTest, SignedCellsTakeTheNarrowestZigzagWidth) {
  constexpr int64_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax32 = std::numeric_limits<int32_t>::max();
  const std::pair<int64_t, uint8_t> cases[] = {
      {0, 1},
      {127, 1},
      {-128, 1},
      {128, 2},
      {-129, 2},
      {32767, 2},
      {-32768, 2},
      {32768, 4},
      {-32769, 4},
      {kMax32, 4},
      {kMin32, 4},
      {kMax32 + 1, 8},
      {kMin32 - 1, 8},
      {std::numeric_limits<int64_t>::max(), 8},
      {std::numeric_limits<int64_t>::min(), 8},
  };
  for (const auto& [extreme, width] : cases) {
    ExpectWidth(std::vector<int64_t>{-1, extreme, 0, 1}, width);
  }
}

TEST(ArrayCodecTest, EmptyArrayIsOneWidthByte) {
  ByteWriter writer;
  writer.PutCounterArray(std::vector<uint64_t>{});
  EXPECT_EQ(writer.bytes(), std::vector<uint8_t>{1});
  ByteReader reader(writer.bytes());
  std::vector<uint64_t> back = {7};
  ASSERT_TRUE(reader.GetCounterVector(0, &back));
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(reader.Exhausted());
}

// One encoding per format whose first width byte is at `offset`, with
// cells of every width.
struct Encoded {
  std::string name;
  std::vector<uint8_t> bytes;
  size_t offset;
  bool (*decodes)(const std::vector<uint8_t>&);
};

template <typename S>
std::vector<uint8_t> Encode(const S& sketch) {
  ByteWriter writer;
  sketch.EncodeTo(writer);
  return writer.TakeBytes();
}

std::vector<Encoded> EncodingsOfEveryWidth() {
  std::vector<Encoded> out;
  Rng rng(10);
  for (int bits : {8, 16, 32, 64}) {
    ByteWriter writer;
    PutCountMin(writer, 4, 64, 0, /*seed=*/7, rng.Next(),
                RandomCells(rng, 4 * 64, bits));
    out.push_back({"count_min/" + std::to_string(bits), writer.TakeBytes(),
                   kCountMinCells, &DecodesExactly<CountMinSketch>});
  }
  for (int64_t bound : kSignedBounds) {
    out.push_back({"count_sketch/" + std::to_string(bound),
                   CountSketchReference(rng, bound), kCountSketchCells,
                   &DecodesExactly<CountSketch>});
    out.push_back({"ams/" + std::to_string(bound), AmsReference(rng, bound),
                   kAmsCells, &DecodesExactly<AmsSketch>});
  }
  ElasticCountMin elastic_cm(2, 16, 23);
  ElasticCountSketch elastic_cs(2, 16, 31);
  for (int i = 0; i < 400; ++i) {
    elastic_cm.Update(rng.UniformInt(100), 1 + rng.UniformInt(4));
    elastic_cs.Update(rng.UniformInt(100), rng.Bernoulli(0.5) ? 3 : -2);
  }
  out.push_back({"elastic_count_min", Encode(elastic_cm), kElasticCells,
                 &DecodesExactly<ElasticCountMin>});
  out.push_back({"elastic_count_sketch", Encode(elastic_cs), kElasticCells,
                 &DecodesExactly<ElasticCountSketch>});
  for (const Encoded& encoded : out) {
    EXPECT_TRUE(encoded.decodes(encoded.bytes)) << encoded.name;
  }
  return out;
}

TEST(ArrayCodecTest, WidthByteOutsideOneTwoFourEightIsRefused) {
  for (int width = 0; width < 256; ++width) {
    if (width == 1 || width == 2 || width == 4 || width == 8) continue;
    std::vector<uint8_t> bytes(1 + 16 * 8, 0);
    bytes[0] = static_cast<uint8_t>(width);
    ByteReader reader(bytes);
    std::vector<uint64_t> out = {7};
    EXPECT_FALSE(reader.GetCounterVector(1, &out)) << width;
    EXPECT_EQ(reader.remaining(), bytes.size());
    EXPECT_EQ(out, std::vector<uint64_t>{7});
  }
  for (const Encoded& encoded : EncodingsOfEveryWidth()) {
    for (int width = 0; width < 256; ++width) {
      std::vector<uint8_t> bytes = encoded.bytes;
      if (width == 1 || width == 2 || width == 4 || width == 8) continue;
      bytes[encoded.offset] = static_cast<uint8_t>(width);
      EXPECT_FALSE(encoded.decodes(bytes)) << encoded.name << " " << width;
      if (encoded.name.starts_with("count_min")) {
        EXPECT_FALSE(CountMinSketch::ValidateEncoded(bytes.data(),
                                                     bytes.size()));
      }
    }
  }
}

TEST(ArrayCodecTest, TruncationAtEveryByteIsRefused) {
  for (const Encoded& encoded : EncodingsOfEveryWidth()) {
    for (size_t cut = 0; cut < encoded.bytes.size(); ++cut) {
      const std::vector<uint8_t> truncated(encoded.bytes.begin(),
                                           encoded.bytes.begin() + cut);
      EXPECT_FALSE(encoded.decodes(truncated)) << encoded.name << " " << cut;
    }
    std::vector<uint8_t> extended = encoded.bytes;
    extended.push_back(0);
    EXPECT_FALSE(encoded.decodes(extended)) << encoded.name;
  }
  ByteWriter writer;
  PutCountMin(writer, 4, 64, 0, /*seed=*/7, 5, std::vector<uint64_t>(256, 3));
  const std::vector<uint8_t> bytes = writer.TakeBytes();
  for (size_t cut = 0; cut <= bytes.size() + 1; ++cut) {
    std::vector<uint8_t> resized = bytes;
    resized.resize(cut);
    EXPECT_EQ(CountMinSketch::ValidateEncoded(resized.data(), resized.size()),
              cut == bytes.size())
        << cut;
  }
}

// A wider cell than needed is still the same array: it decodes, merges
// from its bytes like the minimal encoding, and re-encodes minimal.
template <typename S>
void ExpectWiderWidthReencodesMinimal(const std::vector<uint8_t>& minimal,
                                      size_t offset, size_t cells) {
  ASSERT_EQ(minimal[offset], 1);
  std::vector<uint64_t> packed;
  ByteReader reader(minimal.data() + offset, minimal.size() - offset);
  ASSERT_TRUE(reader.GetCounterVector(cells, &packed));
  for (uint8_t width : {2, 4, 8}) {
    ByteWriter bytes;
    bytes.PutRaw(minimal.data(), offset);
    PutCells(bytes, packed, width);
    const size_t tail = offset + 1 + cells;
    bytes.PutRaw(minimal.data() + tail, minimal.size() - tail);
    ByteReader wide_reader(bytes.bytes());
    const std::optional<S> decoded = S::DecodeFrom(wide_reader);
    ASSERT_TRUE(decoded.has_value()) << int{width};
    EXPECT_TRUE(wide_reader.Exhausted());
    EXPECT_EQ(Encode(*decoded), minimal) << int{width};
    if constexpr (std::is_same_v<S, CountMinSketch>) {
      const std::vector<uint8_t>& w = bytes.bytes();
      ASSERT_TRUE(CountMinSketch::ValidateEncoded(w.data(), w.size()));
      S by_wide = *decoded;
      S by_minimal = *decoded;
      by_wide.MergeEncoded(w.data(), w.size());
      by_minimal.MergeEncoded(minimal.data(), minimal.size());
      EXPECT_EQ(Encode(by_wide), Encode(by_minimal));
    }
  }
}

TEST(ArrayCodecTest, NonMinimalWidthIsAcceptedAndReencodesMinimal) {
  Rng rng(11);
  {
    ByteWriter writer;
    PutCountMin(writer, 4, 64, 0, /*seed=*/7, 9, RandomCells(rng, 256, 8));
    ExpectWiderWidthReencodesMinimal<CountMinSketch>(writer.bytes(),
                                                     kCountMinCells, 256);
  }
  ExpectWiderWidthReencodesMinimal<CountSketch>(CountSketchReference(rng, 100),
                                                kCountSketchCells, 5 * 512);
  ExpectWiderWidthReencodesMinimal<AmsSketch>(AmsReference(rng, 100),
                                              kAmsCells, 5 * 64);
  ElasticCountMin elastic_cm(2, 16, 23);
  ElasticCountSketch elastic_cs(2, 16, 31);
  for (int i = 0; i < 100; ++i) {
    elastic_cm.Update(rng.UniformInt(100));
    elastic_cs.Update(rng.UniformInt(100), rng.Bernoulli(0.5) ? 1 : -1);
  }
  ExpectWiderWidthReencodesMinimal<ElasticCountMin>(Encode(elastic_cm),
                                                    kElasticCells, 2 * 16);
  ExpectWiderWidthReencodesMinimal<ElasticCountSketch>(Encode(elastic_cs),
                                                       kElasticCells, 2 * 16);
}

// Bytes operator new handed out while `decode` ran.
template <typename F>
size_t AllocatedBy(F&& decode) {
  g_allocated.store(0);
  g_counting.store(true);
  decode();
  g_counting.store(false);
  return g_allocated.load();
}

TEST(ArrayCodecTest, CellCountTheBytesCannotHoldIsRefusedBeforeAllocating) {
  // The codec: `size - 1` one-byte cells back at most that many.
  for (uint8_t width : {1, 2, 4, 8}) {
    const std::vector<uint8_t> bytes(1 + 10 * width, 0);
    std::vector<uint8_t> with_width = bytes;
    with_width[0] = width;
    for (size_t count : {size_t{11}, size_t{1} << 40, ~size_t{0}}) {
      ByteReader reader(with_width);
      std::vector<uint64_t> out;
      EXPECT_EQ(AllocatedBy([&] {
                  EXPECT_FALSE(reader.GetCounterVector(count, &out));
                }),
                0u);
      EXPECT_EQ(reader.remaining(), with_width.size());
    }
    // What the bytes do hold allocates 8 bytes per cell, at most 8 per
    // input byte.
    ByteReader reader(with_width);
    std::vector<uint64_t> out;
    const size_t allocated = AllocatedBy(
        [&] { EXPECT_TRUE(reader.GetCounterVector(10, &out)); });
    EXPECT_EQ(allocated, 10 * sizeof(uint64_t));
    EXPECT_LE(allocated, 8 * with_width.size());
  }

  // The formats: headers that declare far more cells than follow.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> hostile;
  {
    ByteWriter cm;
    cm.PutU32(kCountMinMagic);
    cm.PutU32(64);
    cm.PutU32(1u << 28);
    cm.PutU32(0);
    cm.PutU64(7);
    cm.PutU64(0);
    PutCells(cm, std::vector<uint64_t>(16, 1), 1);
    hostile.emplace_back("count_min", cm.TakeBytes());
  }
  {
    ByteWriter cs;
    cs.PutU32(kCountSketchMagic);
    cs.PutU32(64);
    cs.PutU32(1u << 28);
    cs.PutU64(9);
    cs.PutU64(0);
    PutCells(cs, std::vector<uint64_t>(16, 0), 1);
    hostile.emplace_back("count_sketch", cs.TakeBytes());
  }
  {
    ByteWriter ams;
    ams.PutU32(kAmsMagic);
    ams.PutU32(256);
    ams.PutU32(1u << 20);
    ams.PutU64(13);
    PutCells(ams, std::vector<uint64_t>(16, 0), 1);
    hostile.emplace_back("ams", ams.TakeBytes());
  }
  for (uint32_t magic : {kElasticCountMinMagic, kElasticCountSketchMagic}) {
    ByteWriter elastic;
    elastic.PutU32(magic);
    elastic.PutU32(64);
    elastic.PutU32(1u << 28);
    elastic.PutU64(3);
    elastic.PutU64(1);  // n
    elastic.PutU32(1);  // levels
    elastic.PutU32(1u << 28);
    elastic.PutU64(1);  // mass
    PutCells(elastic, std::vector<uint64_t>(16, 0), 1);
    hostile.emplace_back("elastic", elastic.TakeBytes());
  }
  const auto refuses = [](const std::string& name,
                          const std::vector<uint8_t>& bytes) {
    ByteReader reader(bytes);
    if (name == "count_min") return !CountMinSketch::DecodeFrom(reader);
    if (name == "count_sketch") return !CountSketch::DecodeFrom(reader);
    if (name == "ams") return !AmsSketch::DecodeFrom(reader);
    uint32_t magic = 0;
    ByteReader(bytes).GetU32(&magic);
    if (magic == kElasticCountMinMagic) {
      return !ElasticCountMin::DecodeFrom(reader);
    }
    return !ElasticCountSketch::DecodeFrom(reader);
  };
  for (const auto& [name, bytes] : hostile) {
    bool refused = false;
    const size_t allocated =
        AllocatedBy([&] { refused = refuses(name, bytes); });
    EXPECT_TRUE(refused) << name;
    EXPECT_LE(allocated, 8 * bytes.size()) << name;
  }
}

// ---- Stream digests ----

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

// Each format whose cell layout changed moved its magic, so a payload
// of the full-u64 layout is refused by its magic, never misread. Here
// the current bytes under the previous magic stand in for one.
template <typename S>
void ExpectPreviousMagicRefused(const S& sketch, uint32_t previous) {
  std::vector<uint8_t> bytes = Encode(sketch);
  ASSERT_TRUE(DecodesExactly<S>(bytes));
  ByteWriter magic;
  magic.PutU32(previous);
  std::copy(magic.bytes().begin(), magic.bytes().end(), bytes.begin());
  EXPECT_FALSE(DecodesExactly<S>(bytes));
}

TEST(ArrayCodecTest, PreviousLayoutMagicsAreRefused) {
  CountMinSketch count_min(4, 64, 1);
  CountSketch count_sketch(4, 64, 2);
  AmsSketch ams(4, 16, 3);
  DyadicCountMin dyadic(8, 3, 64, 4);
  ElasticCountMin elastic_cm(4, 64, 5);
  ElasticCountSketch elastic_cs(4, 64, 6);
  for (uint64_t x = 0; x < 500; ++x) {
    count_min.Update(x);
    count_sketch.Update(x, 1);
    ams.Update(x, 1);
    dyadic.Update(x % 256, 1);
    elastic_cm.Update(x, 1);
    elastic_cs.Update(x, 1);
  }
  ExpectPreviousMagicRefused(count_min, 0x31304d43);      // "CM01"
  ExpectPreviousMagicRefused(count_sketch, 0x31305343);   // "CS01"
  ExpectPreviousMagicRefused(ams, 0x31304d41);            // "AM01"
  ExpectPreviousMagicRefused(dyadic, 0x31304344);         // "DC01"
  ExpectPreviousMagicRefused(elastic_cm, 0x314d4345);     // "ECM1"
  ExpectPreviousMagicRefused(elastic_cs, 0x31534345);     // "ECS1"
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
       8225, 0x02e6d2e4bb63eadaULL},
      {"count_min_conservative", Encode(conservative),
       2081, 0x933df745427ffa96ULL},
      {"count_sketch", Encode(count_sketch),
       2589, 0x0ae62de0eb57fdabULL},
      {"ams", Encode(ams),
       661, 0x80b2c31f45b0e94cULL},
      {"bloom", Encode(bloom),
       1288, 0x9e876c1b6397c3faULL},
      {"dyadic_count_min", Encode(dyadic),
       26689, 0x4e35cfef695da266ULL},
      {"kmv", Encode(kmv),
       2068, 0x5ce84db7659953ebULL},
      {"elastic_count_min", Encode(elastic_cm),
       2618, 0x32081db96d0527fdULL},
      {"elastic_count_sketch", Encode(elastic_cs),
       2362, 0xf10608c154cd30d5ULL},
  };
  for (const Golden& golden : goldens) {
    EXPECT_EQ(golden.bytes.size(), golden.size) << golden.name;
    EXPECT_EQ(Fnv1a(golden.bytes), golden.digest)
        << golden.name << " 0x" << std::hex << Fnv1a(golden.bytes);
  }
}

}  // namespace
}  // namespace mergeable
