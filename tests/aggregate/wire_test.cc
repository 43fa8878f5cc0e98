// Report frame tests: round trip, checksum rejection of every
// single-bit corruption, and framing-level malformations. A report
// crosses the wire as a one-record BAT1 frame.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/wire.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

WireReport TestReport() {
  WireReport report;
  report.shard_id = 42;
  report.epoch = 7;
  report.payload = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03,
                    0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  return report;
}

std::vector<uint8_t> ReportFrame(const WireReport& report) {
  WireBatch batch;
  batch.reports.push_back(report);
  return EncodeBatchFrame(batch);
}

// The one report a frame carries; std::nullopt when the frame does not
// decode or holds any other number of records.
std::optional<WireReport> DecodeReport(const std::vector<uint8_t>& frame) {
  std::optional<WireBatch> batch = DecodeBatchFrame(frame);
  if (!batch.has_value() || batch->reports.size() != 1) return std::nullopt;
  return std::move(batch->reports.front());
}

TEST(WireTest, FrameRoundTrip) {
  const WireReport report = TestReport();
  const auto frame = ReportFrame(report);
  const auto decoded = DecodeReport(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, report.shard_id);
  EXPECT_EQ(decoded->epoch, report.epoch);
  EXPECT_EQ(decoded->payload, report.payload);
}

TEST(WireTest, EmptyPayloadRoundTrip) {
  WireReport report;
  report.shard_id = 1;
  report.epoch = 2;
  const auto decoded = DecodeReport(ReportFrame(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WireTest, EveryBitFlipIsRejected) {
  const auto frame = ReportFrame(TestReport());
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<uint8_t> corrupted = frame;
    corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(DecodeBatchFrame(corrupted).has_value())
        << "bit " << bit << " flip was accepted";
  }
}

TEST(WireTest, EveryTruncationIsRejected) {
  const auto frame = ReportFrame(TestReport());
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<uint8_t> truncated(frame.begin(),
                                   frame.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeBatchFrame(truncated).has_value())
        << "truncation at " << cut << " was accepted";
  }
}

TEST(WireTest, TrailingBytesAreRejected) {
  auto frame = ReportFrame(TestReport());
  frame.push_back(0);
  EXPECT_FALSE(DecodeBatchFrame(frame).has_value());
}

TEST(WireTest, EmptyInputIsRejected) {
  EXPECT_FALSE(DecodeBatchFrame({}).has_value());
}

TEST(WireTest, ChecksumCoversHeaderFields) {
  // Two report frames differing only in shard id / epoch must carry
  // different checksums (the dedup key is integrity-protected).
  WireReport b = TestReport();
  b.shard_id = 43;
  WireReport c = TestReport();
  c.epoch = 8;
  const auto checksum = [](const std::vector<uint8_t>& frame) {
    return std::vector<uint8_t>(frame.end() - 8, frame.end());
  };
  const auto a_frame = ReportFrame(TestReport());
  EXPECT_NE(checksum(a_frame), checksum(ReportFrame(b)));
  EXPECT_NE(checksum(a_frame), checksum(ReportFrame(c)));
}

TEST(WireTest, ReportFrameBytesArePinned) {
  // The report frame, byte for byte: BAT1 envelope, count 1, one
  // record, and the checksum under its 'RPT1' seed. These are the
  // bytes BAT1 has always had for this report.
  const std::vector<uint8_t> expected = {
      0x42, 0x41, 0x54, 0x31, 0x25, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0xde,
      0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
      0x09, 0x68, 0x5f, 0xb5, 0xe3, 0xa9, 0x10, 0x1f, 0x68};
  EXPECT_EQ(ReportFrame(TestReport()), expected);
}

TEST(WireTest, ChecksumDependsOnPayloadTail) {
  // The tail bytes (beyond the last full 8-byte word) must be covered.
  WireReport a = TestReport();
  WireReport b = TestReport();
  b.payload.back() ^= 1;
  EXPECT_NE(
      FrameChecksum(a.shard_id, a.epoch, a.payload.data(), a.payload.size()),
      FrameChecksum(b.shard_id, b.epoch, b.payload.data(), b.payload.size()));
}


// ---- Server control / query / answer frames ----

WireControl TestControl() {
  WireControl control;
  control.code = ControlCode::kRetryAfter;
  control.shard_id = 9;
  control.epoch = 3;
  control.retry_after_ms = 25;
  return control;
}

WireQuery TestQuery() {
  WireQuery query;
  query.stream = 5;
  query.t1 = 100;
  query.t2 = 163;
  query.deadline_ms = 40;
  return query;
}

WireAnswer TestAnswer() {
  WireAnswer answer;
  answer.stream = 5;
  answer.t1 = 100;
  answer.t2 = 163;
  answer.status = AnswerStatus::kOk;
  answer.partial = true;
  answer.epochs_covered = 32;
  answer.epsilon = 0.01;
  answer.epochs = 64;
  answer.degraded_epochs = 32;
  answer.coverage = 0.5;
  answer.n_received = 4096;
  answer.lost_mass = 512;
  answer.lost_mass_estimated = true;
  answer.received_bound = 40.96;
  answer.full_stream_bound = 552.96;
  answer.payload = {0x01, 0x02, 0x03};
  return answer;
}

TEST(WireTest, ControlFrameRoundTrip) {
  const auto decoded = DecodeControlFrame(EncodeControlFrame(TestControl()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, ControlCode::kRetryAfter);
  EXPECT_EQ(decoded->shard_id, 9u);
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->retry_after_ms, 25u);
}

TEST(WireTest, ControlFrameRejectsUnknownCode) {
  // Re-encode with an out-of-range code by patching the body byte: the
  // code is the first body field, 8 bytes into the frame.
  auto frame = EncodeControlFrame(TestControl());
  frame[8] = 0x77;
  EXPECT_FALSE(DecodeControlFrame(frame).has_value());
}

TEST(WireTest, QueryFrameRoundTrip) {
  const auto decoded = DecodeQueryFrame(EncodeQueryFrame(TestQuery()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->stream, 5u);
  EXPECT_EQ(decoded->t1, 100u);
  EXPECT_EQ(decoded->t2, 163u);
  EXPECT_EQ(decoded->deadline_ms, 40u);
}

TEST(WireTest, QueryFrameRejectsInvertedRange) {
  WireQuery query = TestQuery();
  query.t1 = 200;  // t1 > t2: structurally invalid, refused at decode.
  EXPECT_FALSE(DecodeQueryFrame(EncodeQueryFrame(query)).has_value());
}

TEST(WireTest, QueryFrameCarriesWindow) {
  WireQuery query = TestQuery();
  query.window = 3600;
  const auto decoded = DecodeQueryFrame(EncodeQueryFrame(query));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->window, 3600u);
  EXPECT_EQ(decoded->deadline_ms, 40u);
}

TEST(WireTest, WindowQueryIgnoresRangeValidation) {
  // A window query derives its range server-side; a garbage t1/t2 pair
  // must not get it refused at decode.
  WireQuery query;
  query.stream = 5;
  query.t1 = 200;
  query.t2 = 100;
  query.window = 16;
  const auto decoded = DecodeQueryFrame(EncodeQueryFrame(query));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->window, 16u);
}

TEST(WireTest, QueryFrameRejectsLegacyShortBody) {
  // The pre-window 32-byte body must not decode: a peer that drops the
  // window field silently would default it, changing query semantics.
  std::vector<uint8_t> frame = EncodeQueryFrame(TestQuery());
  // Rebuild the frame with the last body field (window) removed is not
  // expressible through the codec, so corrupt structurally instead:
  // truncating any suffix must be refused (checksum and length both
  // break).
  for (size_t cut = 1; cut <= 9; ++cut) {
    std::vector<uint8_t> shorter(frame.begin(), frame.end() - cut);
    EXPECT_FALSE(DecodeQueryFrame(shorter).has_value()) << cut;
  }
}

TEST(WireTest, AnswerFrameRoundTrip) {
  const WireAnswer answer = TestAnswer();
  const auto decoded = DecodeAnswerFrame(EncodeAnswerFrame(answer));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->stream, answer.stream);
  EXPECT_EQ(decoded->status, AnswerStatus::kOk);
  EXPECT_TRUE(decoded->partial);
  EXPECT_EQ(decoded->epochs_covered, 32u);
  EXPECT_DOUBLE_EQ(decoded->epsilon, 0.01);
  EXPECT_EQ(decoded->epochs, 64u);
  EXPECT_EQ(decoded->degraded_epochs, 32u);
  EXPECT_DOUBLE_EQ(decoded->coverage, 0.5);
  EXPECT_EQ(decoded->n_received, 4096u);
  EXPECT_EQ(decoded->lost_mass, 512u);
  EXPECT_TRUE(decoded->lost_mass_estimated);
  EXPECT_DOUBLE_EQ(decoded->received_bound, 40.96);
  EXPECT_DOUBLE_EQ(decoded->full_stream_bound, 552.96);
  EXPECT_EQ(decoded->payload, answer.payload);
}

TEST(WireTest, NewFramesRejectEveryBitFlip) {
  struct Case {
    std::vector<uint8_t> frame;
    bool (*rejects)(const std::vector<uint8_t>&);
  };
  const Case cases[] = {
      {EncodeControlFrame(TestControl()),
       [](const std::vector<uint8_t>& f) {
         return !DecodeControlFrame(f).has_value();
       }},
      {EncodeQueryFrame(TestQuery()),
       [](const std::vector<uint8_t>& f) {
         return !DecodeQueryFrame(f).has_value();
       }},
      {EncodeAnswerFrame(TestAnswer()),
       [](const std::vector<uint8_t>& f) {
         return !DecodeAnswerFrame(f).has_value();
       }},
  };
  for (const Case& c : cases) {
    for (size_t bit = 0; bit < c.frame.size() * 8; ++bit) {
      std::vector<uint8_t> corrupted = c.frame;
      corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_TRUE(c.rejects(corrupted)) << "bit " << bit << " flip accepted";
    }
  }
}

TEST(WireTest, PeekFrameKindRoutesEveryMagic) {
  EXPECT_EQ(PeekFrameKind(ReportFrame(TestReport())), FrameKind::kBatch);
  EXPECT_EQ(PeekFrameKind(EncodeControlFrame(TestControl())),
            FrameKind::kControl);
  EXPECT_EQ(PeekFrameKind(EncodeQueryFrame(TestQuery())),
            FrameKind::kQuery);
  EXPECT_EQ(PeekFrameKind(EncodeAnswerFrame(TestAnswer())),
            FrameKind::kAnswer);
  EXPECT_EQ(PeekFrameKind({}), FrameKind::kUnknown);
  EXPECT_EQ(PeekFrameKind({0x01, 0x02, 0x03, 0x04}), FrameKind::kUnknown);
  // 'RPT1', the retired single-report frame, routes nowhere.
  EXPECT_EQ(PeekFrameKind({'R', 'P', 'T', '1'}), FrameKind::kUnknown);
}

// The one envelope reader: it tells bytes that do not frame an envelope
// (wrong magic, any truncation) from a framed envelope whose checksum
// fails, reports the frame's extent when bytes follow it, and hands the
// body back in place.
TEST(WireTest, SealedFrameReaderTellsUnframedFromCorrupt) {
  constexpr uint32_t kMagic = 0x31545354;  // 'T' 'S' 'T' '1'
  FrameWriter writer(kMagic, 12);
  writer.PutU64(0x0102030405060708ULL);
  writer.PutU32(9);
  EXPECT_EQ(writer.body_size(), 12u);
  const std::vector<uint8_t> frame = std::move(writer).Seal();
  ASSERT_EQ(frame.size(), 4u + 4u + 12u + 8u);

  const auto view = ViewSealedFrame(kMagic, frame.data(), frame.size());
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->intact);
  EXPECT_EQ(view->length, frame.size());
  EXPECT_EQ(view->body.data(), frame.data() + 8);
  EXPECT_EQ(view->body.size(), 12u);
  uint64_t checksum = 0;
  ByteReader(frame.data() + 20, 8).GetU64(&checksum);
  EXPECT_EQ(checksum, FrameChecksum(kMagic, 12, frame.data() + 8, 12));

  EXPECT_FALSE(ViewSealedFrame(kMagic + 1, frame.data(), frame.size()));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(ViewSealedFrame(kMagic, frame.data(), cut)) << cut;
  }
  std::vector<uint8_t> followed = frame;
  followed.push_back(0xee);
  const auto first = ViewSealedFrame(kMagic, followed.data(), followed.size());
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->intact);
  EXPECT_EQ(first->length, frame.size());
  for (size_t at = 8; at < frame.size(); ++at) {
    std::vector<uint8_t> flipped = frame;
    flipped[at] ^= 0x10;
    const auto rotted =
        ViewSealedFrame(kMagic, flipped.data(), flipped.size());
    ASSERT_TRUE(rotted.has_value()) << at;
    EXPECT_FALSE(rotted->intact) << at;
  }
}

// BatchFrameWriter writes exactly what EncodeBatchFrame does, record by
// record, and counts what it holds.
TEST(WireTest, BatchFrameWriterMatchesEncodeBatchFrame) {
  WireBatch batch;
  batch.reports.push_back(TestReport());
  batch.reports.push_back({3, 4, {}});
  BatchFrameWriter writer;
  EXPECT_EQ(writer.count(), 0u);
  EXPECT_EQ(writer.body_size(), 4u);
  for (const WireReport& report : batch.reports) {
    writer.Add(report.shard_id, report.epoch, report.payload.data(),
               report.payload.size());
  }
  EXPECT_EQ(writer.count(), 2u);
  EXPECT_EQ(writer.body_size(), 4u + 20 + 13 + 20);
  EXPECT_EQ(std::move(writer).Seal(), EncodeBatchFrame(batch));
}

TEST(WireTest, FrameRegistryCoversEveryFrameType) {
  const auto& registry = FrameRegistry();
  ASSERT_EQ(registry.size(), 7u);
  for (const auto& info : registry) {
    SCOPED_TRACE(info.name);
    const auto corpus = info.corpus(/*seed=*/7);
    ASSERT_FALSE(corpus.empty());
    for (const auto& frame : corpus) {
      // Every corpus entry is a pristine encoding: the probe must
      // accept it (and internally asserts the re-encode fixed point).
      EXPECT_TRUE(info.probe(frame));
    }
  }
}

}  // namespace
}  // namespace mergeable
