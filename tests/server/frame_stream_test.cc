// Stream framing: reassembly from arbitrary chunkings, and poisoning
// on hostile length prefixes.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/server/frame_stream.h"

namespace mergeable {
namespace {

std::vector<uint8_t> Frame(uint8_t fill, size_t len) {
  return std::vector<uint8_t>(len, fill);
}

// `frame` behind its u32-LE stream prefix, as a sender writes it.
std::vector<uint8_t> Wrap(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> wrapped;
  AppendWrappedFrame(wrapped, frame);
  return wrapped;
}

TEST(FrameStreamTest, WrapPrefixesLittleEndianLength) {
  const std::vector<uint8_t> wrapped = Wrap(Frame(0xcd, 300));
  ASSERT_EQ(wrapped.size(), 304u);
  EXPECT_EQ(wrapped[0], 0x2c);  // 300 = 0x012c.
  EXPECT_EQ(wrapped[1], 0x01);
  EXPECT_EQ(wrapped[2], 0x00);
  EXPECT_EQ(wrapped[3], 0x00);
}

TEST(FrameStreamTest, RoundTripsSingleFrame) {
  FrameDecoder decoder;
  const std::vector<uint8_t> frame = Frame(0xab, 17);
  const std::vector<uint8_t> wrapped = Wrap(frame);
  ASSERT_TRUE(decoder.Feed(wrapped.data(), wrapped.size()));
  const auto out = decoder.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameStreamTest, ReassemblesAcrossEveryChunking) {
  // Three frames, delivered in chunks of every size from 1 to 7 bytes:
  // the decoder must produce identical frames regardless of chunking.
  const std::vector<std::vector<uint8_t>> frames = {
      Frame(0x11, 5), Frame(0x22, 0), Frame(0x33, 63)};
  std::vector<uint8_t> stream;
  for (const auto& frame : frames) {
    const auto wrapped = Wrap(frame);
    stream.insert(stream.end(), wrapped.begin(), wrapped.end());
  }
  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder decoder;
    std::vector<std::vector<uint8_t>> out;
    for (size_t at = 0; at < stream.size(); at += chunk) {
      const size_t len = std::min(chunk, stream.size() - at);
      ASSERT_TRUE(decoder.Feed(stream.data() + at, len));
      while (auto frame = decoder.Next()) out.push_back(*frame);
    }
    EXPECT_EQ(out, frames) << "chunk size " << chunk;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(FrameStreamTest, EmptyFrameIsLegal) {
  FrameDecoder decoder;
  const auto wrapped = Wrap({});
  ASSERT_TRUE(decoder.Feed(wrapped.data(), wrapped.size()));
  const auto out = decoder.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(FrameStreamTest, OversizedLengthPoisonsWithoutAllocating) {
  FrameDecoder decoder;
  // A prefix claiming ~4 GiB: refused on sight; nothing is buffered for
  // it (the decoder holds only the 4 prefix bytes it was fed).
  const uint8_t hostile[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(decoder.Feed(hostile, sizeof(hostile)));
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_FALSE(decoder.Next().has_value());
  // Poisoning is sticky: later bytes are refused too.
  const uint8_t more[1] = {0x00};
  EXPECT_FALSE(decoder.Feed(more, sizeof(more)));
}

TEST(FrameStreamTest, MaxSizedFrameIsAccepted) {
  FrameDecoder decoder;
  const auto wrapped = Wrap(Frame(0x5a, kMaxFrameBytes));
  ASSERT_TRUE(decoder.Feed(wrapped.data(), wrapped.size()));
  const auto out = decoder.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), kMaxFrameBytes);
}

TEST(FrameStreamTest, OversizedLengthMidStreamPoisons) {
  FrameDecoder decoder;
  const auto good = Wrap(Frame(0x01, 8));
  ASSERT_TRUE(decoder.Feed(good.data(), good.size()));
  ASSERT_TRUE(decoder.Next().has_value());
  const uint8_t hostile[4] = {0x01, 0x00, 0x10, 0x01};  // > kMaxFrameBytes.
  EXPECT_FALSE(decoder.Feed(hostile, sizeof(hostile)));
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameStreamTest, LongLivedConnectionCompactsItsBuffer) {
  // Push many frames through one decoder; the reassembly buffer must
  // not retain the whole history.
  FrameDecoder decoder;
  for (int i = 0; i < 1000; ++i) {
    const auto wrapped = Wrap(Frame(static_cast<uint8_t>(i), 100));
    ASSERT_TRUE(decoder.Feed(wrapped.data(), wrapped.size()));
    ASSERT_TRUE(decoder.Next().has_value());
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

}  // namespace
}  // namespace mergeable
