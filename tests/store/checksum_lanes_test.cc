// What the four-lane checksum (util/hash.h ChecksumBytes) must still
// catch in every envelope long enough to use the lanes: SEG1 record
// bodies of 1 KiB and 64 KiB, and tagged and BAT1 envelopes of at least
// 64 bytes. Each mutation below must be rejected by the verifier
// that guards the envelope — WalkSegment reports the SEG1 record
// corrupt, the views return nothing — and, where the mutation touches
// only checksummed bytes, the recomputed checksum must differ from the
// stored one, so the rejection is the checksum's and not a length or
// shape check's:
//   * every single-bit flip;
//   * swapping two adjacent words (they feed different lanes);
//   * swapping two words 32 bytes apart (the same lane);
//   * swapping two adjacent 32-byte blocks;
//   * dropping or appending 1-8 bytes, with the length field fixed up.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/wire.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {
namespace {

// One checksummed envelope: the u32 length field at `length_at` counts
// the checksummed bytes from `region_at` up to the trailing u64
// checksum.
struct Envelope {
  std::string name;
  std::vector<uint8_t> frame;
  size_t length_at = 0;
  size_t region_at = 0;
  // A SEG1 record: its verifier is WalkSegment, which must report it
  // framed but corrupt.
  bool segment = false;
  // The checksum the verifier recomputes for `frame` as it stands.
  std::function<uint64_t(const std::vector<uint8_t>&)> checksum;
  // True when the envelope's verifier accepts `frame`.
  std::function<bool(const std::vector<uint8_t>&)> accepts;
};

uint32_t GetU32At(const std::vector<uint8_t>& frame, size_t at) {
  uint32_t value = 0;
  ByteReader(frame.data() + at, 4).GetU32(&value);
  return value;
}

uint64_t StoredChecksum(const std::vector<uint8_t>& frame) {
  uint64_t value = 0;
  ByteReader(frame.data() + frame.size() - 8, 8).GetU64(&value);
  return value;
}

size_t RegionSize(const Envelope& envelope,
                  const std::vector<uint8_t>& frame) {
  return frame.size() - 8 - envelope.region_at;
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

// A SEG1 frame whose body (key fields + payload) is `body_size` bytes.
Envelope SegmentEnvelope(size_t body_size) {
  constexpr size_t kBodyHeader = 8 + 4 + 8 + 4;
  const std::vector<uint8_t> payload =
      PatternBytes(body_size - kBodyHeader, body_size);
  Envelope envelope;
  envelope.name = "SEG1/" + std::to_string(body_size);
  envelope.frame = EncodeSegmentFrame(9, 0, 4, payload.data(), payload.size());
  envelope.length_at = 4;
  envelope.region_at = 8;
  envelope.segment = true;
  envelope.checksum = [](const std::vector<uint8_t>& frame) {
    const size_t body_len = frame.size() - 16;
    return FrameChecksum(GetU32At(frame, 0), body_len, frame.data() + 8,
                         body_len);
  };
  envelope.accepts = [](const std::vector<uint8_t>& frame) {
    bool intact = false;
    WalkSegment(frame.data(), frame.size(),
                [&](const SegmentRecordView& view) { intact |= view.intact; });
    return intact;
  };
  return envelope;
}

std::vector<uint8_t> TaggedPayloadOf(size_t payload_size) {
  return EncodeTaggedPayload(SummaryTag::kSpaceSaving,
                             PatternBytes(payload_size, 77));
}

Envelope TaggedEnvelope() {
  Envelope envelope;
  envelope.name = "SUM1";
  envelope.frame = TaggedPayloadOf(200);
  envelope.length_at = 8;
  envelope.region_at = 12;
  envelope.checksum = [](const std::vector<uint8_t>& frame) {
    return FrameChecksum(GetU32At(frame, 4), 0, frame.data() + 12,
                         frame.size() - 20);
  };
  envelope.accepts = [](const std::vector<uint8_t>& frame) {
    return ViewTaggedPayload(frame.data(), frame.size()).has_value();
  };
  return envelope;
}

Envelope BatchEnvelope() {
  WireBatch batch;
  for (uint64_t shard = 0; shard < 3; ++shard) {
    batch.reports.push_back(
        WireReport{shard, 5, PatternBytes(40 + 8 * shard, shard + 1)});
  }
  Envelope envelope;
  envelope.name = "BAT1";
  envelope.frame = EncodeBatchFrame(batch);
  envelope.length_at = 4;
  envelope.region_at = 8;
  envelope.checksum = [](const std::vector<uint8_t>& frame) {
    const size_t size = frame.size() - 16;
    return FrameChecksum(GetU32At(frame, 0), size, frame.data() + 8, size);
  };
  envelope.accepts = [](const std::vector<uint8_t>& frame) {
    std::vector<BatchRecordView> records;
    return ViewBatchFrame(frame, &records);
  };
  return envelope;
}

std::vector<Envelope> AllEnvelopes() {
  std::vector<Envelope> envelopes;
  envelopes.push_back(SegmentEnvelope(1024));
  envelopes.push_back(SegmentEnvelope(64 << 10));
  envelopes.push_back(TaggedEnvelope());
  envelopes.push_back(BatchEnvelope());
  return envelopes;
}

// A mutation of the checksummed region must be caught by the checksum
// itself and by the envelope's verifier; a SEG1 record must come back
// framed but corrupt.
void ExpectCaught(const Envelope& envelope,
                  const std::vector<uint8_t>& mutated,
                  const std::string& what) {
  EXPECT_NE(envelope.checksum(mutated), StoredChecksum(mutated))
      << envelope.name << " " << what;
  if (!envelope.segment) {
    EXPECT_FALSE(envelope.accepts(mutated)) << envelope.name << " " << what;
    return;
  }
  bool intact = false;
  const SegmentScanTotals totals =
      WalkSegment(mutated.data(), mutated.size(),
                  [&](const SegmentRecordView& view) { intact |= view.intact; });
  EXPECT_FALSE(intact) << envelope.name << " " << what;
  EXPECT_EQ(totals.corrupt_records, 1u) << envelope.name << " " << what;
  EXPECT_FALSE(totals.torn_tail) << envelope.name << " " << what;
}

// The single-bit flips to try: every bit of every byte, except in the
// middle of the 64 KiB body. There every bit of the first and last KiB
// (lane starts, the last blocks, the trailing words, the tail and the
// checksum field) is flipped, and one bit of each word in between,
// cycling through all 64 bit positions: about 24,000 flips. A full
// sweep would be 524,288 flips, 34 GB of hashing.
std::vector<std::pair<size_t, int>> BitFlips(const Envelope& envelope) {
  constexpr size_t kEdge = 1024;
  const size_t size = envelope.frame.size();
  std::vector<std::pair<size_t, int>> flips;
  for (size_t byte = 0; byte < size; ++byte) {
    if (size <= 4 * kEdge || byte < kEdge || byte >= size - kEdge) {
      for (int bit = 0; bit < 8; ++bit) flips.emplace_back(byte, bit);
      continue;
    }
    const size_t offset = byte - envelope.region_at;
    const size_t position = (offset / 8) % 64;  // Bit of the word to flip.
    if (offset % 8 == position / 8) {
      flips.emplace_back(byte, static_cast<int>(position % 8));
    }
  }
  return flips;
}

void SwapRanges(std::vector<uint8_t>* bytes, size_t a, size_t b,
                size_t length) {
  std::vector<uint8_t> held(bytes->begin() + a, bytes->begin() + a + length);
  std::memmove(bytes->data() + a, bytes->data() + b, length);
  std::memcpy(bytes->data() + b, held.data(), length);
}

TEST(ChecksumLanesTest, EveryEnvelopeIsLongEnoughForTheLanes) {
  for (const Envelope& envelope : AllEnvelopes()) {
    EXPECT_GE(RegionSize(envelope, envelope.frame), kChecksumLaneMinBytes)
        << envelope.name;
    EXPECT_EQ(GetU32At(envelope.frame, envelope.length_at),
              RegionSize(envelope, envelope.frame))
        << envelope.name;
    EXPECT_EQ(envelope.checksum(envelope.frame),
              StoredChecksum(envelope.frame))
        << envelope.name;
    EXPECT_TRUE(envelope.accepts(envelope.frame)) << envelope.name;
  }
}

TEST(ChecksumLanesTest, EveryBitFlipIsRejected) {
  for (const Envelope& envelope : AllEnvelopes()) {
    std::vector<uint8_t> frame = envelope.frame;
    const size_t region_end = frame.size() - 8;
    for (const auto& [byte, bit] : BitFlips(envelope)) {
      const uint8_t mask = static_cast<uint8_t>(1u << bit);
      frame[byte] ^= mask;
      const std::string what =
          "byte=" + std::to_string(byte) + " bit=" + std::to_string(bit);
      if (byte >= envelope.region_at && byte < region_end) {
        ExpectCaught(envelope, frame, what);
      } else {
        // Header and checksum flips: the verifier refuses the frame.
        EXPECT_FALSE(envelope.accepts(frame)) << envelope.name << " " << what;
      }
      frame[byte] ^= mask;
      if (HasFailure()) return;
    }
  }
}

TEST(ChecksumLanesTest, WordAndBlockSwapsAreRejected) {
  for (const Envelope& envelope : AllEnvelopes()) {
    const std::vector<uint8_t>& frame = envelope.frame;
    const size_t region = envelope.region_at;
    const size_t words = RegionSize(envelope, frame) / 8;
    const auto word_at = [&](size_t i) {
      return std::vector<uint8_t>(frame.begin() + region + 8 * i,
                                  frame.begin() + region + 8 * i + 8);
    };
    uint64_t swaps = 0;
    // Distance 1: adjacent words, different lanes. Distance 4: words
    // 32 bytes apart, the same lane.
    for (const size_t distance : {size_t{1}, size_t{4}}) {
      for (size_t i = 0; i + distance < words; ++i) {
        if (word_at(i) == word_at(i + distance)) continue;  // A no-op swap.
        std::vector<uint8_t> swapped = frame;
        SwapRanges(&swapped, region + 8 * i, region + 8 * (i + distance), 8);
        ExpectCaught(envelope, swapped,
                     "words " + std::to_string(i) + "," +
                         std::to_string(i + distance));
        ++swaps;
        if (HasFailure()) return;
      }
    }
    // Adjacent 32-byte blocks.
    for (size_t b = 0; 32 * (b + 2) <= words * 8; ++b) {
      std::vector<uint8_t> swapped = frame;
      SwapRanges(&swapped, region + 32 * b, region + 32 * (b + 1), 32);
      if (swapped == frame) continue;
      ExpectCaught(envelope, swapped, "blocks " + std::to_string(b));
      ++swaps;
      if (HasFailure()) return;
    }
    EXPECT_GT(swaps, words) << envelope.name;
  }
}

TEST(ChecksumLanesTest, DroppedOrAppendedBytesAreRejected) {
  for (const Envelope& envelope : AllEnvelopes()) {
    const std::vector<uint8_t>& frame = envelope.frame;
    const size_t region_end = frame.size() - 8;
    const auto with_region = [&](size_t new_size,
                                 const std::vector<uint8_t>& appended) {
      std::vector<uint8_t> mutated(frame.begin(),
                                   frame.begin() + envelope.region_at);
      const size_t keep = std::min(new_size, region_end - envelope.region_at);
      mutated.insert(mutated.end(), frame.begin() + envelope.region_at,
                     frame.begin() + envelope.region_at + keep);
      mutated.insert(mutated.end(), appended.begin(), appended.end());
      mutated.insert(mutated.end(), frame.end() - 8, frame.end());
      ByteWriter length;
      length.PutU32(static_cast<uint32_t>(new_size));
      std::memcpy(mutated.data() + envelope.length_at, length.bytes().data(),
                  4);
      return mutated;
    };
    const size_t size = RegionSize(envelope, frame);
    for (size_t d = 1; d <= 8; ++d) {
      ExpectCaught(envelope, with_region(size - d, {}),
                   "dropped " + std::to_string(d));
      ExpectCaught(envelope,
                   with_region(size + d, std::vector<uint8_t>(d, 0)),
                   "appended " + std::to_string(d) + " zero bytes");
      ExpectCaught(envelope,
                   with_region(size + d, PatternBytes(d, 1000 + d)),
                   "appended " + std::to_string(d) + " bytes");
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace mergeable
