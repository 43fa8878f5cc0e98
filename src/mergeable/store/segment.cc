#include "mergeable/store/segment.h"

#include "mergeable/aggregate/wire.h"
#include "mergeable/util/bytes.h"

namespace mergeable {
namespace {

// 'S' 'E' 'G' '1' read as a little-endian u32.
constexpr uint32_t kSegmentMagic = 0x31474553;

// One frame's fixed overhead: magic + body length prefix + checksum.
constexpr uint64_t kFrameOverhead = 4 + 4 + 8;

// The body's fields ahead of the payload: stream, level, index and the
// payload length prefix.
constexpr uint64_t kBodyHeader = 8 + 4 + 8 + 4;

// The record starting at `offset` of bytes [0, size). std::nullopt when
// the bytes do not even frame a record (magic, body length and checksum
// field present): a torn tail or untracked garbage. Otherwise a view
// with its location set that is intact only when the checksum matches
// and the body parses; a corrupt view keeps its key zero.
std::optional<SegmentRecordView> ViewSegmentRecord(const uint8_t* bytes,
                                                   size_t size,
                                                   uint64_t offset) {
  if (offset > size) return std::nullopt;
  ByteReader reader(bytes + offset, size - offset);
  uint32_t magic = 0;
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  if (!reader.GetU32(&magic) || magic != kSegmentMagic ||
      !reader.GetU32(&body_len) || !reader.Skip(body_len) ||
      !reader.GetU64(&checksum)) {
    return std::nullopt;
  }
  SegmentRecordView view;
  view.offset = offset;
  view.length = kFrameOverhead + body_len;
  const uint8_t* body = bytes + offset + 8;
  if (checksum != FrameChecksum(kSegmentMagic, body_len, body, body_len)) {
    return view;
  }
  SegmentRecordView parsed = view;
  ByteReader body_reader(body, body_len);
  uint32_t payload_len = 0;
  // Checksummed but malformed: left not intact, treated as corrupt.
  if (!body_reader.GetU64(&parsed.stream) ||
      !body_reader.GetU32(&parsed.level) ||
      !body_reader.GetU64(&parsed.index) ||
      !body_reader.GetU32(&payload_len) ||
      body_reader.remaining() != payload_len) {
    return view;
  }
  parsed.intact = true;
  parsed.payload_offset = offset + 8 + (body_len - payload_len);
  parsed.payload_length = payload_len;
  return parsed;
}

}  // namespace

std::vector<uint8_t> EncodeSegmentFrame(uint64_t stream, uint32_t level,
                                        uint64_t index,
                                        const uint8_t* payload,
                                        size_t size) {
  const uint32_t body_len = static_cast<uint32_t>(kBodyHeader + size);
  ByteWriter writer;
  writer.Reserve(kFrameOverhead + body_len);
  writer.PutU32(kSegmentMagic);
  writer.PutU32(body_len);
  writer.PutU64(stream);
  writer.PutU32(level);
  writer.PutU64(index);
  writer.PutBytes(payload, size);
  writer.PutU64(FrameChecksum(kSegmentMagic, body_len,
                              writer.bytes().data() + 8, body_len));
  return writer.TakeBytes();
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
