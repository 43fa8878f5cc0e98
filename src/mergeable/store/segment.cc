#include "mergeable/store/segment.h"

#include "mergeable/aggregate/wire.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

// 'S' 'E' 'G' '1' read as a little-endian u32.
constexpr uint32_t kSegmentMagic = 0x31474553;

// The body's fields ahead of the payload: stream, level, index and the
// payload length prefix.
constexpr uint64_t kBodyHeader = 8 + 4 + 8 + 4;

// The record starting at `offset` of bytes [0, size). std::nullopt when
// the bytes do not even frame a record (ViewSealedFrame finds no SEG1
// frame there): a torn tail or untracked garbage. Otherwise a view with
// its location set that is intact only when the checksum matches and
// the body parses; a corrupt view keeps its key zero.
std::optional<SegmentRecordView> ViewSegmentRecord(const uint8_t* bytes,
                                                   size_t size,
                                                   uint64_t offset) {
  if (offset > size) return std::nullopt;
  const std::optional<SealedFrameView> frame =
      ViewSealedFrame(kSegmentMagic, bytes + offset, size - offset);
  if (!frame.has_value()) return std::nullopt;
  SegmentRecordView view;
  view.offset = offset;
  view.length = frame->length;
  if (!frame->intact) return view;
  SegmentRecordView parsed = view;
  ByteReader body(frame->body.data(), frame->body.size());
  uint32_t payload_len = 0;
  // Checksummed but malformed: left not intact, treated as corrupt.
  if (!body.GetU64(&parsed.stream) || !body.GetU32(&parsed.level) ||
      !body.GetU64(&parsed.index) || !body.GetU32(&payload_len) ||
      body.remaining() != payload_len) {
    return view;
  }
  parsed.intact = true;
  parsed.payload_offset =
      (frame->body.data() + frame->body.size() - payload_len) - bytes;
  parsed.payload_length = payload_len;
  return parsed;
}

}  // namespace

FrameWriter StartSegmentFrame(uint64_t stream, uint32_t level,
                              uint64_t index, size_t payload_size) {
  FrameWriter frame(kSegmentMagic, kBodyHeader + payload_size);
  frame.PutU64(stream);
  frame.PutU32(level);
  frame.PutU64(index);
  frame.PutU32(static_cast<uint32_t>(payload_size));
  return frame;
}

std::vector<uint8_t> EncodeSegmentFrame(uint64_t stream, uint32_t level,
                                        uint64_t index,
                                        const uint8_t* payload,
                                        size_t size) {
  FrameWriter frame = StartSegmentFrame(stream, level, index, size);
  frame.PutRaw(payload, size);
  return std::move(frame).Seal();
}

SegmentScanTotals WalkSegment(
    const uint8_t* bytes, size_t size,
    const std::function<void(const SegmentRecordView&)>& visit) {
  SegmentScanTotals totals;
  uint64_t offset = 0;
  while (offset < size) {
    const std::optional<SegmentRecordView> view =
        ViewSegmentRecord(bytes, size, offset);
    if (!view.has_value()) {
      totals.torn_tail = true;
      break;
    }
    if (!view->intact) ++totals.corrupt_records;
    offset += view->length;
    totals.valid_bytes = offset;
    visit(*view);
  }
  if (!totals.torn_tail) totals.valid_bytes = size;
  return totals;
}

std::optional<SegmentRecordView> VerifySegmentRecord(const uint8_t* frame,
                                                     size_t size,
                                                     uint64_t stream,
                                                     uint32_t level,
                                                     uint64_t index) {
  const std::optional<SegmentRecordView> view =
      ViewSegmentRecord(frame, size, 0);
  if (!view.has_value() || !view->intact || view->length != size ||
      view->stream != stream || view->level != level ||
      view->index != index) {
    return std::nullopt;
  }
  return view;
}

}  // namespace mergeable
