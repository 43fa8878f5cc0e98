// SEG1 record framing: checksum coverage, torn-tail detection, corrupt
// record skipping, and in-place verification — the integrity layer the
// durable store and scrubber stand on. The frame is a stored record's
// only envelope, so a leaf record's frame gets the same truncation and
// bit-flip sweeps through the one verifier a page-in and the scrubber
// call, and the leaf payload decoder its own checks on the metadata.
// The tagged envelope of an ANS1 answer gets the same sweeps through
// its in-place (span) decoder.

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/wire.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

std::vector<uint8_t> Frame(uint64_t stream, uint32_t level, uint64_t index,
                           std::initializer_list<uint8_t> payload) {
  const std::vector<uint8_t> bytes(payload);
  return EncodeSegmentFrame(stream, level, index, bytes.data(), bytes.size());
}

// Every record WalkSegment hands out, and what it concluded.
struct Scan {
  SegmentScanTotals totals;
  std::vector<SegmentRecordView> records;
};

Scan ScanFile(const std::vector<uint8_t>& file) {
  Scan scan;
  scan.totals = WalkSegment(
      file.data(), file.size(),
      [&](const SegmentRecordView& view) { scan.records.push_back(view); });
  return scan;
}

std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& file,
                               const SegmentRecordView& view) {
  return std::vector<uint8_t>(
      file.begin() + view.payload_offset,
      file.begin() + view.payload_offset + view.payload_length);
}

TEST(SegmentTest, RoundTripsRecordsInOrder) {
  std::vector<uint8_t> file;
  for (const auto& frame : {Frame(1, 0, 0, {1, 2, 3}), Frame(1, 0, 1, {}),
                            Frame(2, 3, 7, {9, 9, 9, 9})}) {
    file.insert(file.end(), frame.begin(), frame.end());
  }
  const Scan scan = ScanFile(file);
  EXPECT_FALSE(scan.totals.torn_tail);
  EXPECT_EQ(scan.totals.corrupt_records, 0u);
  EXPECT_EQ(scan.totals.valid_bytes, file.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_TRUE(scan.records[0].intact);
  EXPECT_EQ(scan.records[0].stream, 1u);
  EXPECT_EQ(scan.records[0].level, 0u);
  EXPECT_EQ(scan.records[0].index, 0u);
  EXPECT_EQ(PayloadOf(file, scan.records[0]),
            std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(scan.records[1].payload_length, 0u);
  EXPECT_EQ(scan.records[2].stream, 2u);
  EXPECT_EQ(scan.records[2].level, 3u);
  EXPECT_EQ(scan.records[2].index, 7u);
  // Offsets and lengths tile the file exactly.
  EXPECT_EQ(scan.records[0].offset, 0u);
  EXPECT_EQ(scan.records[1].offset, scan.records[0].length);
  EXPECT_EQ(scan.records[2].offset + scan.records[2].length, file.size());
}

TEST(SegmentTest, EmptyFileScansClean) {
  const Scan scan = ScanFile({});
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.totals.torn_tail);
  EXPECT_EQ(scan.totals.valid_bytes, 0u);
}

TEST(SegmentTest, EveryTruncationOfFinalRecordIsTornNeverMisread) {
  const auto first = Frame(1, 0, 0, {1, 2});
  const auto second = Frame(1, 0, 1, {3, 4, 5});
  std::vector<uint8_t> file = first;
  file.insert(file.end(), second.begin(), second.end());

  for (size_t cut = first.size() + 1; cut < file.size(); ++cut) {
    const std::vector<uint8_t> torn(file.begin(), file.begin() + cut);
    const Scan scan = ScanFile(torn);
    EXPECT_TRUE(scan.totals.torn_tail) << "cut=" << cut;
    EXPECT_EQ(scan.totals.valid_bytes, first.size()) << "cut=" << cut;
    ASSERT_EQ(scan.records.size(), 1u) << "cut=" << cut;
    EXPECT_TRUE(scan.records[0].intact);
    EXPECT_EQ(scan.records[0].index, 0u);
  }
}

TEST(SegmentTest, EveryBitFlipIsCaughtByTheChecksum) {
  const auto first = Frame(1, 0, 0, {1, 2});
  const auto second = Frame(1, 0, 1, {3, 4, 5, 6});
  std::vector<uint8_t> file = first;
  file.insert(file.end(), second.begin(), second.end());

  for (size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = file;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const Scan scan = ScanFile(flipped);
      // The flip lands in exactly one record: that record must come
      // back corrupt (or unframeable — a flip in a magic/length field),
      // and never as a silently different intact record.
      uint64_t intact_unchanged = 0;
      for (const SegmentRecordView& view : scan.records) {
        if (!view.intact) continue;
        const std::vector<uint8_t> payload = PayloadOf(flipped, view);
        const auto reencoded = EncodeSegmentFrame(
            view.stream, view.level, view.index, payload.data(),
            payload.size());
        ASSERT_EQ(
            std::vector<uint8_t>(file.begin() + view.offset,
                                 file.begin() + view.offset + view.length),
            reencoded)
            << "byte=" << byte << " bit=" << bit;
        ++intact_unchanged;
      }
      EXPECT_LT(intact_unchanged, 2u) << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(scan.totals.torn_tail || scan.totals.corrupt_records > 0)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(SegmentTest, CorruptMiddleRecordIsSkippedNotFatal) {
  const auto a = Frame(1, 0, 0, {1});
  const auto b = Frame(1, 0, 1, {2});
  const auto c = Frame(1, 0, 2, {3});
  std::vector<uint8_t> file = a;
  // Flip one payload bit inside the middle record (the last byte before
  // its trailing checksum is payload).
  auto rotted = b;
  rotted[rotted.size() - 9] ^= 0x01;
  file.insert(file.end(), rotted.begin(), rotted.end());
  file.insert(file.end(), c.begin(), c.end());

  const Scan scan = ScanFile(file);
  EXPECT_FALSE(scan.totals.torn_tail);
  EXPECT_EQ(scan.totals.corrupt_records, 1u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_TRUE(scan.records[0].intact);
  EXPECT_FALSE(scan.records[1].intact);
  EXPECT_TRUE(scan.records[2].intact);  // Framing recovers past the rot.
  EXPECT_EQ(scan.records[2].index, 2u);
}

// A frame whose checksum holds but whose body is not a record (here, a
// body too short for the key) is corrupt, not a torn tail: the walk
// skips it and carries on, like any checksum failure.
TEST(SegmentTest, ChecksummedButMalformedBodyIsCorruptNotTorn) {
  const auto a = Frame(1, 0, 0, {1});
  uint32_t magic = 0;
  ByteReader(a.data(), 4).GetU32(&magic);
  FrameWriter short_body(magic);
  short_body.PutU64(1);
  const std::vector<uint8_t> malformed = std::move(short_body).Seal();
  const auto c = Frame(1, 0, 2, {3});
  std::vector<uint8_t> file = a;
  file.insert(file.end(), malformed.begin(), malformed.end());
  file.insert(file.end(), c.begin(), c.end());

  const Scan scan = ScanFile(file);
  EXPECT_FALSE(scan.totals.torn_tail);
  EXPECT_EQ(scan.totals.corrupt_records, 1u);
  EXPECT_EQ(scan.totals.valid_bytes, file.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.records[1].intact);
  EXPECT_EQ(scan.records[1].length, malformed.size());
  EXPECT_EQ(scan.records[1].index, 0u);
  EXPECT_TRUE(scan.records[2].intact);
  EXPECT_EQ(scan.records[2].index, 2u);
  EXPECT_FALSE(VerifySegmentRecord(malformed.data(), malformed.size(), 0, 0,
                                   0));
}

// The scrubber's check: VerifySegmentRecord over the manifest's slice of
// a segment buffer.
TEST(SegmentTest, VerifyAtDetectsRotInPlace) {
  const auto a = Frame(1, 0, 0, {1, 2, 3});
  const auto b = Frame(1, 1, 0, {4, 5});
  std::vector<uint8_t> file = a;
  file.insert(file.end(), b.begin(), b.end());
  const auto verify = [](const std::vector<uint8_t>& bytes, size_t offset,
                         size_t length, uint32_t level) {
    return VerifySegmentRecord(bytes.data() + offset, length, 1, level, 0)
        .has_value();
  };

  EXPECT_TRUE(verify(file, 0, a.size(), 0));
  EXPECT_TRUE(verify(file, a.size(), b.size(), 1));
  // Wrong length, the wrong key, and rotted bytes all fail closed.
  EXPECT_FALSE(verify(file, 0, a.size() - 1, 0));
  EXPECT_FALSE(verify(file, 0, a.size() + 1, 0));
  EXPECT_FALSE(verify(file, a.size(), b.size(), 0));
  EXPECT_FALSE(verify(file, a.size(), 0, 1));
  auto rotted = file;
  rotted[a.size() + 6] ^= 0x10;
  EXPECT_FALSE(verify(rotted, a.size(), b.size(), 1));
  EXPECT_TRUE(verify(rotted, 0, a.size(), 0));
}

// The span decoders must only ever read bytes [0, size): each encoding
// sits at the front of a buffer whose tail repeats it, so a decoder that
// read past `size` would find plausible bytes there.
std::vector<uint8_t> WithEchoedTail(const std::vector<uint8_t>& encoded) {
  std::vector<uint8_t> buffer = encoded;
  buffer.insert(buffer.end(), encoded.begin(), encoded.end());
  return buffer;
}

const std::vector<uint8_t> kSampleSummary = {7, 1, 8, 2, 8, 1, 8, 2, 8};

std::vector<uint8_t> SampleTaggedPayload() {
  return EncodeTaggedPayload(SummaryTag::kSpaceSaving, kSampleSummary);
}

EpochMeta SampleMeta() {
  EpochMeta meta;
  meta.epoch = 41;
  meta.n = 1000;
  meta.shards_total = 4;
  meta.shards_received = 3;
  meta.lost_mass = 250;
  meta.lost_mass_estimated = true;
  return meta;
}

// The payload of one record frame, copied out.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> payload;
  WalkSegment(frame.data(), frame.size(), [&](const SegmentRecordView& view) {
    const auto begin = frame.begin() + static_cast<ptrdiff_t>(view.payload_offset);
    payload.assign(begin, begin + static_cast<ptrdiff_t>(view.payload_length));
  });
  return payload;
}

// A leaf record as stored: its payload in a SEG1 frame keyed (3, 0, 41).
std::vector<uint8_t> SampleLeafFrame() {
  return EncodeLeafFrame(3, 41, SummaryTag::kSpaceSaving, SampleMeta(),
                         kSampleSummary);
}

std::vector<uint8_t> SampleLeafPayload() { return PayloadOf(SampleLeafFrame()); }

std::vector<uint8_t> SampleNodePayload(SummaryTag tag) {
  return PayloadOf(EncodeNodeFrame(3, 1, 20, tag, kSampleSummary));
}

bool LeafFrameVerifies(const uint8_t* frame, size_t size) {
  return VerifySegmentRecord(frame, size, 3, 0, 41).has_value();
}

TEST(SegmentTest, SpanDecodersMatchTheOwningDecoders) {
  const std::vector<uint8_t> tagged = SampleTaggedPayload();
  const auto view = ViewTaggedPayload(tagged.data(), tagged.size());
  const auto owned = DecodeTaggedPayload(tagged);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(owned.has_value());
  EXPECT_EQ(view->tag, owned->tag);
  EXPECT_EQ(std::vector<uint8_t>(view->payload,
                                 view->payload + view->payload_size),
            owned->payload);

  // A leaf payload decodes to what was encoded, in place.
  const std::vector<uint8_t> leaf = SampleLeafPayload();
  const auto leaf_view =
      ViewLeafRecord(leaf.data(), leaf.size(), SummaryTag::kSpaceSaving);
  ASSERT_TRUE(leaf_view.has_value());
  EXPECT_EQ(leaf_view->meta, SampleMeta());
  EXPECT_EQ(std::vector<uint8_t>(leaf_view->summary,
                                 leaf_view->summary + leaf_view->summary_size),
            kSampleSummary);
  // The tag and six metadata fields are all a leaf adds to its summary.
  EXPECT_EQ(leaf.size(), 4 + 5 * 8 + 4 + kSampleSummary.size());
  EXPECT_EQ(SampleNodePayload(SummaryTag::kSpaceSaving).size(),
            4 + kSampleSummary.size());
}

// A torn leaf frame is refused by the frame's verifier, and a payload
// cut short of the metadata by the leaf decoder; neither reads past the
// bytes it was given. (A payload cut inside the summary is the frame's
// to catch: the summary runs to the end of the payload.)
TEST(SegmentTest, EveryTruncationOfAnEpochRecordIsRejectedInPlace) {
  const std::vector<uint8_t> frame = SampleLeafFrame();
  const std::vector<uint8_t> frames = WithEchoedTail(frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(LeafFrameVerifies(frames.data(), cut)) << "cut=" << cut;
  }
  EXPECT_TRUE(LeafFrameVerifies(frames.data(), frame.size()));
  // Trailing bytes are rejected too.
  EXPECT_FALSE(LeafFrameVerifies(frames.data(), frame.size() + 1));

  const std::vector<uint8_t> leaf = SampleLeafPayload();
  const std::vector<uint8_t> leaves = WithEchoedTail(leaf);
  const size_t metadata = leaf.size() - kSampleSummary.size();
  for (size_t cut = 0; cut < metadata; ++cut) {
    EXPECT_FALSE(
        ViewLeafRecord(leaves.data(), cut, SummaryTag::kSpaceSaving))
        << "cut=" << cut;
  }
  for (size_t cut = metadata; cut <= leaf.size(); ++cut) {
    const auto view =
        ViewLeafRecord(leaves.data(), cut, SummaryTag::kSpaceSaving);
    ASSERT_TRUE(view.has_value()) << "cut=" << cut;
    EXPECT_EQ(view->summary_size, cut - metadata);
  }
}

TEST(SegmentTest, EveryBitFlipOfAnEpochRecordIsRejectedInPlace) {
  const std::vector<uint8_t> frame = SampleLeafFrame();
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = frame;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const std::vector<uint8_t> buffer = WithEchoedTail(flipped);
      EXPECT_FALSE(LeafFrameVerifies(buffer.data(), flipped.size()))
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

// What the record decoders check on bytes the frame's checksum passed:
// the store's tag, and (for a leaf) metadata no writer produces.
TEST(SegmentTest, RecordDecodersRejectAForeignTagAndImpossibleMetadata) {
  const auto decodes = [](const EpochMeta& meta, uint32_t estimated,
                          SummaryTag written, SummaryTag read) {
    std::vector<uint8_t> leaf = PayloadOf(
        EncodeLeafFrame(3, 41, written, meta, std::vector<uint8_t>{1, 2}));
    ByteWriter field;
    field.PutU32(estimated);
    std::copy(field.bytes().begin(), field.bytes().end(),
              leaf.begin() + 4 + 5 * 8);
    return ViewLeafRecord(leaf.data(), leaf.size(), read).has_value();
  };
  const SummaryTag ss = SummaryTag::kSpaceSaving;
  const SummaryTag other = SummaryTag::kMisraGries;
  EpochMeta meta = SampleMeta();
  EXPECT_TRUE(decodes(meta, 0, ss, ss));
  EXPECT_TRUE(decodes(meta, 1, ss, ss));
  EXPECT_FALSE(decodes(meta, 0, other, ss));
  EXPECT_FALSE(decodes(meta, 0, ss, other));
  EXPECT_FALSE(decodes(meta, 2, ss, ss));
  EXPECT_FALSE(decodes(meta, 0xffffffffu, ss, ss));
  meta.shards_received = meta.shards_total + 1;
  EXPECT_FALSE(decodes(meta, 0, ss, ss));
  // Zero totals mean coverage was not tracked: any count passes.
  meta.shards_total = 0;
  EXPECT_TRUE(decodes(meta, 0, ss, ss));

  const std::vector<uint8_t> node = SampleNodePayload(ss);
  const auto summary = ViewNodeRecord(node.data(), node.size(), ss);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(std::vector<uint8_t>(summary->begin(), summary->end()),
            kSampleSummary);
  EXPECT_FALSE(ViewNodeRecord(node.data(), node.size(), other));
  for (size_t cut = 0; cut < 4; ++cut) {
    EXPECT_FALSE(ViewNodeRecord(node.data(), cut, ss)) << "cut=" << cut;
  }
}

TEST(SegmentTest, EveryTruncationOfATaggedPayloadIsRejectedInPlace) {
  const std::vector<uint8_t> tagged = SampleTaggedPayload();
  const std::vector<uint8_t> buffer = WithEchoedTail(tagged);
  for (size_t cut = 0; cut < tagged.size(); ++cut) {
    EXPECT_FALSE(ViewTaggedPayload(buffer.data(), cut).has_value())
        << "cut=" << cut;
  }
  EXPECT_TRUE(ViewTaggedPayload(buffer.data(), tagged.size()).has_value());
  EXPECT_FALSE(ViewTaggedPayload(buffer.data(), tagged.size() + 1).has_value());
}

TEST(SegmentTest, EveryBitFlipOfATaggedPayloadIsRejectedInPlace) {
  const std::vector<uint8_t> tagged = SampleTaggedPayload();
  for (size_t byte = 0; byte < tagged.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = tagged;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const std::vector<uint8_t> buffer = WithEchoedTail(flipped);
      EXPECT_FALSE(
          ViewTaggedPayload(buffer.data(), flipped.size()).has_value())
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

// The SEG1 layout field by field: what the durable write sequence and
// every on-disk history depend on.
TEST(SegmentTest, EncodedFrameMatchesTheLayoutFieldByField) {
  constexpr uint32_t kMagic = 0x31474553;  // 'S' 'E' 'G' '1'
  const std::vector<uint8_t> payload = {7, 8, 9, 10, 11};
  ByteWriter body;
  body.PutU64(3);
  body.PutU32(2);
  body.PutU64(41);
  body.PutBytes(payload);
  ByteWriter frame;
  frame.PutU32(kMagic);
  frame.PutBytes(body.bytes());
  frame.PutU64(
      FrameChecksum(kMagic, body.size(), body.bytes().data(), body.size()));
  EXPECT_EQ(EncodeSegmentFrame(3, 2, 41, payload.data(), payload.size()),
            frame.bytes());
}

// A page-in checks what the scrubber checks — magic, lengths, body
// shape and the SEG1 checksum — plus the key it was asked for. Every
// flipped byte of the frame is refused, the checksum trailer included.
TEST(SegmentTest, PagedRecordChecksFramingKeyAndChecksum) {
  const std::vector<uint8_t> frame = Frame(3, 1, 6, {4, 5, 6, 7});
  const auto view = VerifySegmentRecord(frame.data(), frame.size(), 3, 1, 6);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->intact);
  EXPECT_EQ(view->length, frame.size());
  ASSERT_EQ(view->payload_length, 4u);
  EXPECT_EQ(frame[view->payload_offset], 4);
  EXPECT_EQ(frame[view->payload_offset + 3], 7);
  // The wrong key, a short read or a long read is refused.
  EXPECT_FALSE(VerifySegmentRecord(frame.data(), frame.size(), 4, 1, 6));
  EXPECT_FALSE(VerifySegmentRecord(frame.data(), frame.size(), 3, 0, 6));
  EXPECT_FALSE(VerifySegmentRecord(frame.data(), frame.size(), 3, 1, 7));
  EXPECT_FALSE(VerifySegmentRecord(frame.data(), frame.size() - 1, 3, 1, 6));
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_FALSE(VerifySegmentRecord(longer.data(), longer.size(), 3, 1, 6));
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    std::vector<uint8_t> flipped = frame;
    flipped[byte] ^= 0x01;
    EXPECT_FALSE(
        VerifySegmentRecord(flipped.data(), flipped.size(), 3, 1, 6))
        << "byte=" << byte;
  }
}

TEST(SegmentTest, RecordViewsPointAtThePayloadInPlace) {
  const auto a = Frame(3, 0, 5, {1, 2, 3});
  const auto b = Frame(3, 2, 1, {4, 5});
  std::vector<uint8_t> file = a;
  file.insert(file.end(), b.begin(), b.end());

  const Scan scan = ScanFile(file);
  EXPECT_FALSE(scan.totals.torn_tail);
  EXPECT_EQ(scan.totals.valid_bytes, file.size());
  ASSERT_EQ(scan.records.size(), 2u);
  const SegmentRecordView& view = scan.records[1];
  EXPECT_TRUE(view.intact);
  EXPECT_EQ(view.stream, 3u);
  EXPECT_EQ(view.level, 2u);
  EXPECT_EQ(view.index, 1u);
  EXPECT_EQ(view.offset, a.size());
  ASSERT_EQ(view.payload_length, 2u);
  EXPECT_EQ(file[view.payload_offset], 4);
  EXPECT_EQ(file[view.payload_offset + 1], 5);
}

}  // namespace
}  // namespace mergeable
