// SEG1 record framing: checksum coverage, torn-tail detection, corrupt
// record skipping, and in-place verification — the integrity layer the
// durable store and scrubber stand on. The EPH1 epoch record and the
// tagged envelope a leaf record carries get the same truncation and
// bit-flip sweeps through their in-place (span) decoders.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/wire.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

SegmentRecord Record(uint64_t stream, uint32_t level, uint64_t index,
                     std::initializer_list<uint8_t> payload) {
  return SegmentRecord{stream, level, index,
                       std::vector<uint8_t>(payload)};
}

TEST(SegmentTest, RoundTripsRecordsInOrder) {
  std::vector<uint8_t> file;
  for (const auto& record :
       {Record(1, 0, 0, {1, 2, 3}), Record(1, 0, 1, {}),
        Record(2, 3, 7, {9, 9, 9, 9})}) {
    const auto frame = EncodeSegmentRecord(record);
    file.insert(file.end(), frame.begin(), frame.end());
  }
  const SegmentScan scan = ScanSegment(file);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_records, 0u);
  EXPECT_EQ(scan.valid_bytes, file.size());
  ASSERT_EQ(scan.entries.size(), 3u);
  EXPECT_TRUE(scan.entries[0].intact);
  EXPECT_EQ(scan.entries[0].record.stream, 1u);
  EXPECT_EQ(scan.entries[0].record.level, 0u);
  EXPECT_EQ(scan.entries[0].record.index, 0u);
  EXPECT_EQ(scan.entries[0].record.payload, std::vector<uint8_t>({1, 2, 3}));
  EXPECT_EQ(scan.entries[1].record.payload.size(), 0u);
  EXPECT_EQ(scan.entries[2].record.stream, 2u);
  EXPECT_EQ(scan.entries[2].record.level, 3u);
  EXPECT_EQ(scan.entries[2].record.index, 7u);
  // Offsets and lengths tile the file exactly.
  EXPECT_EQ(scan.entries[0].offset, 0u);
  EXPECT_EQ(scan.entries[1].offset, scan.entries[0].length);
  EXPECT_EQ(scan.entries[2].offset + scan.entries[2].length, file.size());
}

TEST(SegmentTest, EmptyFileScansClean) {
  const SegmentScan scan = ScanSegment({});
  EXPECT_TRUE(scan.entries.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(SegmentTest, EveryTruncationOfFinalRecordIsTornNeverMisread) {
  const auto first = EncodeSegmentRecord(Record(1, 0, 0, {1, 2}));
  const auto second = EncodeSegmentRecord(Record(1, 0, 1, {3, 4, 5}));
  std::vector<uint8_t> file = first;
  file.insert(file.end(), second.begin(), second.end());

  for (size_t cut = first.size() + 1; cut < file.size(); ++cut) {
    const std::vector<uint8_t> torn(file.begin(), file.begin() + cut);
    const SegmentScan scan = ScanSegment(torn);
    EXPECT_TRUE(scan.torn_tail) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, first.size()) << "cut=" << cut;
    ASSERT_EQ(scan.entries.size(), 1u) << "cut=" << cut;
    EXPECT_TRUE(scan.entries[0].intact);
    EXPECT_EQ(scan.entries[0].record.index, 0u);
  }
}

TEST(SegmentTest, EveryBitFlipIsCaughtByTheChecksum) {
  const auto first = EncodeSegmentRecord(Record(1, 0, 0, {1, 2}));
  const auto second = EncodeSegmentRecord(Record(1, 0, 1, {3, 4, 5, 6}));
  std::vector<uint8_t> file = first;
  file.insert(file.end(), second.begin(), second.end());

  for (size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = file;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const SegmentScan scan = ScanSegment(flipped);
      // The flip lands in exactly one record: that record must come
      // back corrupt (or unframeable — a flip in a magic/length field),
      // and never as a silently different intact record.
      uint64_t intact_unchanged = 0;
      for (const SegmentEntry& entry : scan.entries) {
        if (!entry.intact) continue;
        const auto reencoded = EncodeSegmentRecord(entry.record);
        ASSERT_EQ(
            std::vector<uint8_t>(file.begin() + entry.offset,
                                 file.begin() + entry.offset + entry.length),
            reencoded)
            << "byte=" << byte << " bit=" << bit;
        ++intact_unchanged;
      }
      EXPECT_LT(intact_unchanged, 2u) << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(scan.torn_tail || scan.corrupt_records > 0)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(SegmentTest, CorruptMiddleRecordIsSkippedNotFatal) {
  const auto a = EncodeSegmentRecord(Record(1, 0, 0, {1}));
  const auto b = EncodeSegmentRecord(Record(1, 0, 1, {2}));
  const auto c = EncodeSegmentRecord(Record(1, 0, 2, {3}));
  std::vector<uint8_t> file = a;
  // Flip one payload bit inside the middle record (the last byte before
  // its trailing checksum is payload).
  auto rotted = b;
  rotted[rotted.size() - 9] ^= 0x01;
  file.insert(file.end(), rotted.begin(), rotted.end());
  file.insert(file.end(), c.begin(), c.end());

  const SegmentScan scan = ScanSegment(file);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.corrupt_records, 1u);
  ASSERT_EQ(scan.entries.size(), 3u);
  EXPECT_TRUE(scan.entries[0].intact);
  EXPECT_FALSE(scan.entries[1].intact);
  EXPECT_TRUE(scan.entries[2].intact);  // Framing recovers past the rot.
  EXPECT_EQ(scan.entries[2].record.index, 2u);
}

TEST(SegmentTest, VerifyAtDetectsRotInPlace) {
  const auto a = EncodeSegmentRecord(Record(1, 0, 0, {1, 2, 3}));
  const auto b = EncodeSegmentRecord(Record(1, 1, 0, {4, 5}));
  std::vector<uint8_t> file = a;
  file.insert(file.end(), b.begin(), b.end());

  EXPECT_TRUE(VerifySegmentRecordAt(file, 0, a.size()));
  EXPECT_TRUE(VerifySegmentRecordAt(file, a.size(), b.size()));
  // Wrong length, out-of-range, and rotted bytes all fail closed.
  EXPECT_FALSE(VerifySegmentRecordAt(file, 0, a.size() - 1));
  EXPECT_FALSE(VerifySegmentRecordAt(file, file.size(), 8));
  EXPECT_FALSE(VerifySegmentRecordAt(file, a.size(), b.size() + 1));
  auto rotted = file;
  rotted[a.size() + 6] ^= 0x10;
  EXPECT_FALSE(VerifySegmentRecordAt(rotted, a.size(), b.size()));
  EXPECT_TRUE(VerifySegmentRecordAt(rotted, 0, a.size()));
}

// The span decoders must only ever read bytes [0, size): each encoding
// sits at the front of a buffer whose tail repeats it, so a decoder that
// read past `size` would find plausible bytes there.
std::vector<uint8_t> WithEchoedTail(const std::vector<uint8_t>& encoded) {
  std::vector<uint8_t> buffer = encoded;
  buffer.insert(buffer.end(), encoded.begin(), encoded.end());
  return buffer;
}

std::vector<uint8_t> SampleTaggedPayload() {
  return EncodeTaggedPayload(SummaryTag::kSpaceSaving,
                             std::vector<uint8_t>({7, 1, 8, 2, 8, 1, 8, 2, 8}));
}

std::vector<uint8_t> SampleEpochRecord() {
  EpochMeta meta;
  meta.epoch = 41;
  meta.n = 1000;
  meta.shards_total = 4;
  meta.shards_received = 3;
  meta.lost_mass = 250;
  meta.lost_mass_estimated = true;
  return EncodeEpochRecord(meta, SampleTaggedPayload());
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

  const std::vector<uint8_t> record = SampleEpochRecord();
  const auto record_view = ViewEpochRecord(record.data(), record.size());
  ASSERT_TRUE(record_view.has_value());
  EXPECT_EQ(record_view->meta.epoch, 41u);
  EXPECT_TRUE(record_view->meta.lost_mass_estimated);
  EXPECT_EQ(std::vector<uint8_t>(record_view->payload,
                                 record_view->payload +
                                     record_view->payload_size),
            tagged);
}

TEST(SegmentTest, EveryTruncationOfAnEpochRecordIsRejectedInPlace) {
  const std::vector<uint8_t> record = SampleEpochRecord();
  const std::vector<uint8_t> buffer = WithEchoedTail(record);
  for (size_t cut = 0; cut < record.size(); ++cut) {
    EXPECT_FALSE(ViewEpochRecord(buffer.data(), cut).has_value())
        << "cut=" << cut;
  }
  EXPECT_TRUE(ViewEpochRecord(buffer.data(), record.size()).has_value());
  // Trailing bytes are rejected too.
  EXPECT_FALSE(ViewEpochRecord(buffer.data(), record.size() + 1).has_value());
}

TEST(SegmentTest, EveryBitFlipOfAnEpochRecordIsRejectedInPlace) {
  const std::vector<uint8_t> record = SampleEpochRecord();
  for (size_t byte = 0; byte < record.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = record;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      const std::vector<uint8_t> buffer = WithEchoedTail(flipped);
      EXPECT_FALSE(ViewEpochRecord(buffer.data(), flipped.size()).has_value())
          << "byte=" << byte << " bit=" << bit;
    }
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
  const std::vector<uint8_t> payload = {7, 8, 9, 10, 11};
  ByteWriter body;
  body.PutU64(3);
  body.PutU32(2);
  body.PutU64(41);
  body.PutBytes(payload);
  ByteWriter frame;
  frame.PutU32(0x31474553);  // 'S' 'E' 'G' '1'
  frame.PutBytes(body.bytes());
  frame.PutU64(SegmentChecksum(body.bytes()));
  EXPECT_EQ(EncodeSegmentRecord(SegmentRecord{3, 2, 41, payload}),
            frame.bytes());
  EXPECT_EQ(EncodeSegmentFrame(3, 2, 41, payload.data(), payload.size()),
            frame.bytes());
}

// A page-in checks everything but the SEG1 checksum: magic, lengths,
// body shape and the key it was asked for. Every flip outside the
// checksum trailer that leaves the payload alone is refused; payload
// flips are the envelopes' to catch (their own sweeps are above).
TEST(SegmentTest, PagedRecordChecksFramingAndKeyButNotTheChecksum) {
  const std::vector<uint8_t> frame =
      EncodeSegmentRecord(Record(3, 1, 6, {4, 5, 6, 7}));
  const auto view = ViewPagedRecord(frame.data(), frame.size(), 3, 1, 6);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->intact);
  EXPECT_EQ(view->length, frame.size());
  ASSERT_EQ(view->payload_length, 4u);
  EXPECT_EQ(frame[view->payload_offset], 4);
  EXPECT_EQ(frame[view->payload_offset + 3], 7);
  // The wrong key, a short read or a long read is refused.
  EXPECT_FALSE(ViewPagedRecord(frame.data(), frame.size(), 4, 1, 6));
  EXPECT_FALSE(ViewPagedRecord(frame.data(), frame.size(), 3, 0, 6));
  EXPECT_FALSE(ViewPagedRecord(frame.data(), frame.size(), 3, 1, 7));
  EXPECT_FALSE(ViewPagedRecord(frame.data(), frame.size() - 1, 3, 1, 6));
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_FALSE(ViewPagedRecord(longer.data(), longer.size(), 3, 1, 6));
  const size_t trailer = frame.size() - 8;
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    std::vector<uint8_t> flipped = frame;
    flipped[byte] ^= 0x01;
    const bool accepted =
        ViewPagedRecord(flipped.data(), flipped.size(), 3, 1, 6).has_value();
    const bool in_payload = byte >= view->payload_offset && byte < trailer;
    EXPECT_EQ(accepted, in_payload || byte >= trailer) << "byte=" << byte;
  }
}

TEST(SegmentTest, RecordViewsPointAtThePayloadInPlace) {
  const auto a = EncodeSegmentRecord(Record(3, 0, 5, {1, 2, 3}));
  const auto b = EncodeSegmentRecord(Record(3, 2, 1, {4, 5}));
  std::vector<uint8_t> file = a;
  file.insert(file.end(), b.begin(), b.end());

  std::vector<SegmentRecordView> views;
  const SegmentScanTotals totals = WalkSegment(
      file.data(), file.size(),
      [&](const SegmentRecordView& view) { views.push_back(view); });
  EXPECT_FALSE(totals.torn_tail);
  EXPECT_EQ(totals.valid_bytes, file.size());
  ASSERT_EQ(views.size(), 2u);
  EXPECT_TRUE(views[1].intact);
  EXPECT_EQ(views[1].stream, 3u);
  EXPECT_EQ(views[1].level, 2u);
  EXPECT_EQ(views[1].index, 1u);
  EXPECT_EQ(views[1].offset, a.size());
  ASSERT_EQ(views[1].payload_length, 2u);
  EXPECT_EQ(file[views[1].payload_offset], 4);
  EXPECT_EQ(file[views[1].payload_offset + 1], 5);
  // The span checksum is the vector checksum.
  EXPECT_EQ(SegmentChecksum(file.data(), 5),
            SegmentChecksum(std::vector<uint8_t>(file.begin(),
                                                 file.begin() + 5)));
}

}  // namespace
}  // namespace mergeable
