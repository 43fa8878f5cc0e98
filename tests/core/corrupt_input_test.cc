// Registry-driven corrupt-input rejection across every summary wire
// format.
//
// The summary codec registry (aggregate/summary_registry.h) supplies
// the probe, the corpus and the capability flags for all 14 formats;
// every format is subjected to the same battery: all truncations must
// be rejected (every format either demands exhaustion or an exact
// payload size), every single-bit flip must decode without crashing
// (acceptance is allowed only for don't-care bits), and the universal
// must-reject cases (empty input, smashed magic, trailing garbage)
// hold. Labeled `fuzz` so it runs under sanitizers via `ctest -L fuzz`,
// where "without leaking" is enforced.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/frequency/misra_gries.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/quantiles/qdigest.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

constexpr uint64_t kCorpusSeed = 1;

// The heaviest corpus entry — the filled/merged instance every factory
// places last — used for the byte-level sweeps, matching the old
// hand-rolled table that corrupted one well-populated encoding per
// format.
std::vector<uint8_t> FilledEncoding(const SummaryCodecInfo& info) {
  const auto corpus = info.corpus(kCorpusSeed);
  return corpus.back();
}

TEST(CorruptInputTest, PristineBytesDecode) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    for (const std::vector<uint8_t>& payload : info.corpus(kCorpusSeed)) {
      EXPECT_TRUE(info.probe(payload)) << info.name;
    }
  }
}

TEST(CorruptInputTest, EveryTruncationIsRejected) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    const std::vector<uint8_t> bytes = FilledEncoding(info);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(info.probe(truncated))
          << info.name << " accepted truncation at " << cut;
    }
  }
}

TEST(CorruptInputTest, EveryBitFlipDecodesWithoutCrashing) {
  // Acceptance is allowed (don't-care bits exist); UB, aborts and leaks
  // are not — this sweep runs under ASan/UBSan in the fuzz suite.
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    const std::vector<uint8_t> bytes = FilledEncoding(info);
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      (void)info.probe(flipped);
    }
  }
}

TEST(CorruptInputTest, EmptyInputIsRejected) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    EXPECT_FALSE(info.probe({})) << info.name;
  }
}

TEST(CorruptInputTest, SmashedMagicIsRejected) {
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    std::vector<uint8_t> wrong_magic = FilledEncoding(info);
    wrong_magic[0] ^= 0xff;
    EXPECT_FALSE(info.probe(wrong_magic)) << info.name;
  }
}

TEST(CorruptInputTest, TrailingGarbageIsRejected) {
  // Count-Min deliberately tolerates trailing bytes (it is embedded in
  // composite formats); the registry flag excludes it from this case.
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    if (!info.rejects_trailing) continue;
    std::vector<uint8_t> trailing = FilledEncoding(info);
    trailing.push_back(0);
    EXPECT_FALSE(info.probe(trailing)) << info.name;
  }
}

TEST(CorruptInputTest, HugeLengthFieldsDoNotAllocate) {
  // Saturate every 32-bit aligned field with 0xffffffff, one at a time.
  // Decoders must reject (or cleanly accept) without attempting the
  // multi-gigabyte allocations the smashed counts used to imply.
  for (const SummaryCodecInfo& info : SummaryRegistry()) {
    const std::vector<uint8_t> bytes = FilledEncoding(info);
    for (size_t at = 0; at + 4 <= bytes.size(); at += 4) {
      std::vector<uint8_t> smashed = bytes;
      smashed[at] = 0xff;
      smashed[at + 1] = 0xff;
      smashed[at + 2] = 0xff;
      smashed[at + 3] = 0xff;
      (void)info.probe(smashed);
    }
  }
}

// ---- Counts whose sum wraps uint64_t ----
//
// Two counters of 2^63 over a stream of n = 0 sum to 0 mod 2^64. Every
// counter codec bounds the counts by n, and that check must hold on the
// true sum, not the wrapped one.

constexpr uint64_t kHalfRange = uint64_t{1} << 63;

// An SS01 payload: capacity 4, n = 0, no slack, two (item, count, over)
// entries of count 2^63.
std::vector<uint8_t> WrappingSpaceSavingPayload() {
  ByteWriter writer;
  writer.PutU32(0x31305353);  // "SS01"
  writer.PutU32(4);
  writer.PutU64(0);  // n
  writer.PutU64(0);  // under_slack
  writer.PutU32(2);
  for (const uint64_t item : {uint64_t{1}, uint64_t{2}}) {
    writer.PutU64(item);
    writer.PutU64(kHalfRange);
    writer.PutU64(0);
  }
  return writer.bytes();
}

TEST(CorruptInputTest, MisraGriesRejectsCountsWrappingTheSum) {
  ByteWriter writer;
  writer.PutU32(0x3130474d);  // "MG01"
  writer.PutU32(4);
  writer.PutU64(0);  // n
  writer.PutU32(2);
  for (const uint64_t item : {uint64_t{1}, uint64_t{2}}) {
    writer.PutU64(item);
    writer.PutU64(kHalfRange);
  }
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(MisraGries::DecodeFrom(reader).has_value());
}

TEST(CorruptInputTest, SpaceSavingRejectsCountsWrappingTheSum) {
  const std::vector<uint8_t> payload = WrappingSpaceSavingPayload();
  ByteReader reader(payload);
  EXPECT_FALSE(SpaceSaving::DecodeFrom(reader).has_value());
}

TEST(CorruptInputTest, DeamortizedSpaceSavingRejectsCountsWrappingTheSum) {
  const std::vector<uint8_t> payload = WrappingSpaceSavingPayload();
  ByteReader reader(payload);
  EXPECT_FALSE(DeamortizedSpaceSaving::DecodeFrom(reader).has_value());
}

TEST(CorruptInputTest, QDigestRejectsCountsWrappingTheSum) {
  ByteWriter writer;
  writer.PutU32(0x31304451);  // "QD01"
  writer.PutU32(4);           // log_universe
  writer.PutU64(4);           // k
  writer.PutU64(0);           // n
  writer.PutU32(2);
  for (const uint64_t id : {uint64_t{1}, uint64_t{2}}) {
    writer.PutU64(id);
    writer.PutU64(kHalfRange);
  }
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(QDigest::DecodeFrom(reader).has_value());
}

// ---- Frame codecs (wire.h FrameRegistry) ----
//
// The wire frames the socket server routes get the identical battery,
// driven by the frame registry: report, tagged payload, control, query
// and answer framings are all parsers of untrusted network bytes.

std::vector<uint8_t> FilledFrame(const FrameCodecInfo& info) {
  const auto corpus = info.corpus(kCorpusSeed);
  return corpus.back();
}

TEST(CorruptInputTest, FramePristineBytesDecode) {
  for (const FrameCodecInfo& info : FrameRegistry()) {
    for (const std::vector<uint8_t>& frame : info.corpus(kCorpusSeed)) {
      EXPECT_TRUE(info.probe(frame)) << info.name;
    }
  }
}

TEST(CorruptInputTest, FrameEveryTruncationIsRejected) {
  for (const FrameCodecInfo& info : FrameRegistry()) {
    const std::vector<uint8_t> frame = FilledFrame(info);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      const std::vector<uint8_t> truncated(
          frame.begin(), frame.begin() + static_cast<long>(cut));
      EXPECT_FALSE(info.probe(truncated))
          << info.name << " accepted truncation at " << cut;
    }
  }
}

TEST(CorruptInputTest, FrameEveryBitFlipIsRejected) {
  // Frames carry a whole-body checksum, so unlike the raw summary
  // codecs there are no don't-care bits: every flip must be refused.
  for (const FrameCodecInfo& info : FrameRegistry()) {
    const std::vector<uint8_t> frame = FilledFrame(info);
    for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::vector<uint8_t> corrupted = frame;
      corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(info.probe(corrupted))
          << info.name << " accepted bit flip " << bit;
    }
  }
}

TEST(CorruptInputTest, FrameEmptyInputIsRejected) {
  for (const FrameCodecInfo& info : FrameRegistry()) {
    EXPECT_FALSE(info.probe({})) << info.name;
  }
}

TEST(CorruptInputTest, FrameTrailingGarbageIsRejected) {
  for (const FrameCodecInfo& info : FrameRegistry()) {
    std::vector<uint8_t> frame = FilledFrame(info);
    frame.push_back(0x00);
    EXPECT_FALSE(info.probe(frame)) << info.name;
  }
}

TEST(CorruptInputTest, FrameHugeLengthFieldsDoNotAllocate) {
  // Saturate the body-length field of each frame: the decoder must
  // reject by bounds-checking against the actual bytes, not by
  // attempting a 4 GiB allocation (GetBytes validates length first).
  for (const FrameCodecInfo& info : FrameRegistry()) {
    std::vector<uint8_t> frame = FilledFrame(info);
    ASSERT_GE(frame.size(), 8u) << info.name;
    frame[4] = 0xff;
    frame[5] = 0xff;
    frame[6] = 0xff;
    frame[7] = 0xff;
    EXPECT_FALSE(info.probe(frame)) << info.name;
  }
}

}  // namespace
}  // namespace mergeable
