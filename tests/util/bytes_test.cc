// Wire-format contract tests for ByteWriter / ByteReader: the encoding
// is little-endian on every host (golden byte sequences, not just round
// trips), the bulk array calls write exactly the bytes of one scalar
// call per element, and the length-checked readers (GetBytes,
// GetWordVector) reject lengths the input cannot back without moving.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

TEST(BytesTest, U32IsLittleEndianOnTheWire) {
  ByteWriter writer;
  writer.PutU32(0x01020304u);
  const std::vector<uint8_t> expected = {0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(BytesTest, U64IsLittleEndianOnTheWire) {
  ByteWriter writer;
  writer.PutU64(0x0102030405060708ULL);
  const std::vector<uint8_t> expected = {0x08, 0x07, 0x06, 0x05,
                                         0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(BytesTest, I64UsesTwosComplementLittleEndian) {
  ByteWriter writer;
  writer.PutI64(-2);
  const std::vector<uint8_t> expected = {0xfe, 0xff, 0xff, 0xff,
                                         0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(BytesTest, DoubleUsesIeee754LittleEndian) {
  ByteWriter writer;
  writer.PutDouble(1.0);  // IEEE-754: 0x3ff0000000000000.
  const std::vector<uint8_t> expected = {0x00, 0x00, 0x00, 0x00,
                                         0x00, 0x00, 0xf0, 0x3f};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(BytesTest, PrimitiveRoundTrip) {
  ByteWriter writer;
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutI64(-42);
  writer.PutDouble(3.25);
  ByteReader reader(writer.bytes());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetI64(&i64));
  ASSERT_TRUE(reader.GetDouble(&d));
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(reader.Exhausted());
}

TEST(BytesTest, ByteSwapHelpersAreInvolutions) {
  EXPECT_EQ(internal::ByteSwap32(0x01020304u), 0x04030201u);
  EXPECT_EQ(internal::ByteSwap32(internal::ByteSwap32(0xdeadbeefu)),
            0xdeadbeefu);
  EXPECT_EQ(internal::ByteSwap64(0x0102030405060708ULL),
            0x0807060504030201ULL);
  EXPECT_EQ(internal::ByteSwap64(internal::ByteSwap64(0xfeedfacecafef00dULL)),
            0xfeedfacecafef00dULL);
}

TEST(BytesTest, PatchU32OverwritesInPlaceLittleEndian) {
  ByteWriter writer;
  writer.PutU32(0);
  writer.PutU64(7);
  writer.PatchU32(0, 0x0a0b0c0d);
  writer.PatchU32(8, 0x01020304);
  const std::vector<uint8_t> expected = {0x0d, 0x0c, 0x0b, 0x0a, 7, 0, 0, 0,
                                         0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(writer.bytes(), expected);
}

TEST(BytesTest, LengthPrefixedBytesRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ByteWriter writer;
  writer.PutBytes(payload);
  EXPECT_EQ(writer.size(), 4 + payload.size());

  ByteReader reader(writer.bytes());
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(reader.GetBytes(&decoded));
  EXPECT_EQ(decoded, payload);
  EXPECT_TRUE(reader.Exhausted());
}

TEST(BytesTest, EmptyBytesRoundTrip) {
  ByteWriter writer;
  writer.PutBytes(std::vector<uint8_t>{});
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> decoded = {9, 9};
  ASSERT_TRUE(reader.GetBytes(&decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(BytesTest, GetBytesRejectsLengthBeyondInput) {
  ByteWriter writer;
  writer.PutU32(1000);  // Claims 1000 payload bytes...
  writer.PutU32(0);     // ...but only 4 follow.
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> decoded;
  EXPECT_FALSE(reader.GetBytes(&decoded));
}

TEST(BytesTest, GetBytesRejectsTruncatedLengthPrefix) {
  const std::vector<uint8_t> input = {0x01, 0x00};  // Half a u32.
  ByteReader reader(input);
  std::vector<uint8_t> decoded;
  EXPECT_FALSE(reader.GetBytes(&decoded));
}

TEST(BytesTest, GetBytesHugeLengthDoesNotAllocate) {
  // A corrupted length prefix claiming 4 GiB must fail fast instead of
  // allocating; this runs under sanitizers in the fuzz suite.
  ByteWriter writer;
  writer.PutU32(0xffffffffu);
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> decoded;
  EXPECT_FALSE(reader.GetBytes(&decoded));
}

TEST(BytesTest, U64ArrayMatchesPerElementPutU64) {
  const std::vector<uint64_t> words = {0, 1, 0x0102030405060708ULL,
                                       ~uint64_t{0}, 0x8000000000000000ULL};
  ByteWriter bulk;
  bulk.PutU32(7);  // Unaligned start: the block is not word-aligned.
  bulk.PutU64Array(words);
  ByteWriter each;
  each.PutU32(7);
  for (uint64_t word : words) each.PutU64(word);
  EXPECT_EQ(bulk.bytes(), each.bytes());
}

TEST(BytesTest, ArraysRoundTripThroughScalarAndBulkReads) {
  const std::vector<uint64_t> words = {3, 0x0102030405060708ULL, ~uint64_t{0}};
  ByteWriter writer;
  writer.PutU64Array(words);
  writer.PutU64Array({});

  ByteReader bulk(writer.bytes());
  std::vector<uint64_t> words_back;
  std::vector<uint64_t> empty;
  ASSERT_TRUE(bulk.GetWordVector(words.size(), &words_back));
  ASSERT_TRUE(bulk.GetWordVector(0, &empty));
  EXPECT_TRUE(bulk.Exhausted());
  EXPECT_EQ(words_back, words);

  ByteReader scalar(writer.bytes());
  for (uint64_t word : words) {
    uint64_t got = 0;
    ASSERT_TRUE(scalar.GetU64(&got));
    EXPECT_EQ(got, word);
  }
  EXPECT_TRUE(scalar.Exhausted());
}

TEST(BytesTest, ShortU64ArrayReadFailsWithoutMoving) {
  ByteWriter writer;
  writer.PutU64Array(std::vector<uint64_t>{1, 2, 3});
  writer.PutU32(0xabcdef01u);  // 28 bytes: three words and a half.
  ByteReader reader(writer.bytes());
  std::vector<uint64_t> out(4, 99);
  EXPECT_FALSE(reader.GetWordVector(4, &out));
  EXPECT_EQ(reader.remaining(), 28u);
  EXPECT_EQ(out, std::vector<uint64_t>(4, 99));  // Nothing copied.
  // The reader is still usable from where it stood.
  std::vector<uint64_t> three;
  ASSERT_TRUE(reader.GetWordVector(3, &three));
  EXPECT_EQ(three, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(reader.remaining(), 4u);
}

// GetWordVector reads words at any alignment of the input and replaces
// what the vector held.
TEST(BytesTest, WordVectorReadsUnalignedWordsAndReplacesItsOutput) {
  const std::vector<uint64_t> words = {7, 0x0102030405060708ULL,
                                       ~uint64_t{0}};
  ByteWriter writer;
  writer.PutU32(0x11223344u);  // Leaves the words 4-byte aligned only.
  writer.PutU64Array(words);
  ByteReader reader(writer.bytes());
  uint32_t skip = 0;
  ASSERT_TRUE(reader.GetU32(&skip));
  std::vector<uint64_t> words_back = {42, 43, 44, 45};
  ASSERT_TRUE(reader.GetWordVector(words.size(), &words_back));
  EXPECT_EQ(words_back, words);
  EXPECT_TRUE(reader.Exhausted());
}

}  // namespace
}  // namespace mergeable
