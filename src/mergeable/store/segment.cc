#include "mergeable/store/segment.h"

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {
namespace {

// 'S' 'E' 'G' '1' read as a little-endian u32.
constexpr uint32_t kSegmentMagic = 0x31474553;

// One frame's fixed overhead: magic + body length prefix + checksum.
constexpr uint64_t kFrameOverhead = 4 + 4 + 8;

// The body's fields ahead of the payload: stream, level, index and the
// payload length prefix.
constexpr uint64_t kBodyHeader = 8 + 4 + 8 + 4;

}  // namespace

uint64_t SegmentChecksum(const uint8_t* body, size_t size) {
  return ChecksumBytes(MixHash(size, /*seed=*/0x53454731), body, size);
}

uint64_t SegmentChecksum(const std::vector<uint8_t>& body) {
  return SegmentChecksum(body.data(), body.size());
}

std::vector<uint8_t> EncodeSegmentFrame(uint64_t stream, uint32_t level,
                                        uint64_t index,
                                        const uint8_t* payload,
                                        size_t size) {
  ByteWriter head;
  head.PutU32(kSegmentMagic);
  head.PutU32(static_cast<uint32_t>(kBodyHeader + size));
  head.PutU64(stream);
  head.PutU32(level);
  head.PutU64(index);
  head.PutU32(static_cast<uint32_t>(size));
  std::vector<uint8_t> frame = head.TakeBytes();
  frame.reserve(frame.size() + size + 8);
  frame.insert(frame.end(), payload, payload + size);
  ByteWriter checksum;
  checksum.PutU64(SegmentChecksum(frame.data() + 8, frame.size() - 8));
  frame.insert(frame.end(), checksum.bytes().begin(), checksum.bytes().end());
  return frame;
}

std::vector<uint8_t> EncodeSegmentRecord(const SegmentRecord& record) {
  return EncodeSegmentFrame(record.stream, record.level, record.index,
                            record.payload.data(), record.payload.size());
}

namespace {

// Frames the record starting at `offset` of bytes [0, size): magic,
// body length and checksum field present. std::nullopt when the bytes
// do not even frame a record (torn tail or untracked garbage);
// otherwise a view with its location set and `intact` still false.
std::optional<SegmentRecordView> FrameAt(const uint8_t* bytes, size_t size,
                                         uint64_t offset) {
  if (offset > size) return std::nullopt;
  ByteReader reader(bytes + offset, size - offset);
  uint32_t magic = 0;
  uint32_t body_len = 0;
  if (!reader.GetU32(&magic) || magic != kSegmentMagic ||
      !reader.GetU32(&body_len) || !reader.Skip(body_len)) {
    return std::nullopt;
  }
  if (!reader.Skip(8)) return std::nullopt;  // The checksum field.
  SegmentRecordView view;
  view.offset = offset;
  view.length = kFrameOverhead + body_len;
  return view;
}

// Parses the framed body's key and payload length into `view` (marking
// it intact); false when the body is malformed.
bool ParseBody(const uint8_t* bytes, SegmentRecordView* view) {
  const uint64_t body_len = view->length - kFrameOverhead;
  ByteReader reader(bytes + view->offset + 8, body_len);
  uint32_t payload_len = 0;
  if (!reader.GetU64(&view->stream) || !reader.GetU32(&view->level) ||
      !reader.GetU64(&view->index) || !reader.GetU32(&payload_len) ||
      reader.remaining() != payload_len) {
    view->stream = 0;
    view->level = 0;
    view->index = 0;
    return false;
  }
  view->intact = true;
  view->payload_offset = view->offset + 8 + (body_len - payload_len);
  view->payload_length = payload_len;
  return true;
}

// FrameAt plus the SEG1 checksum, checked in place, and the body parse:
// the view is intact, or checksum-corrupt with its key left zero.
std::optional<SegmentRecordView> ViewSegmentRecord(const uint8_t* bytes,
                                                   size_t size,
                                                   uint64_t offset) {
  std::optional<SegmentRecordView> view = FrameAt(bytes, size, offset);
  if (!view.has_value()) return std::nullopt;
  const uint64_t body_len = view->length - kFrameOverhead;
  const uint8_t* body = bytes + offset + 8;
  uint64_t checksum = 0;
  ByteReader(body + body_len, 8).GetU64(&checksum);
  if (checksum != SegmentChecksum(body, body_len)) return view;  // Not intact.
  // Checksummed but malformed: left not intact, treated as corrupt.
  ParseBody(bytes, &*view);
  return view;
}

}  // namespace

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

SegmentScan ScanSegment(const std::vector<uint8_t>& bytes) {
  SegmentScan scan;
  static_cast<SegmentScanTotals&>(scan) = WalkSegment(
      bytes.data(), bytes.size(), [&](const SegmentRecordView& view) {
        SegmentEntry entry;
        entry.offset = view.offset;
        entry.length = view.length;
        entry.intact = view.intact;
        if (view.intact) {
          const uint8_t* payload = bytes.data() + view.payload_offset;
          entry.record = SegmentRecord{
              view.stream, view.level, view.index,
              std::vector<uint8_t>(payload, payload + view.payload_length)};
        }
        scan.entries.push_back(std::move(entry));
      });
  return scan;
}

std::optional<SegmentRecordView> ViewPagedRecord(const uint8_t* frame,
                                                 size_t size,
                                                 uint64_t stream,
                                                 uint32_t level,
                                                 uint64_t index) {
  std::optional<SegmentRecordView> view = FrameAt(frame, size, 0);
  if (!view.has_value() || view->length != size ||
      !ParseBody(frame, &*view) || view->stream != stream ||
      view->level != level || view->index != index) {
    return std::nullopt;
  }
  return view;
}

bool VerifySegmentRecordAt(const std::vector<uint8_t>& file_bytes,
                           uint64_t offset, uint64_t length) {
  if (offset > file_bytes.size() || length > file_bytes.size() - offset) {
    return false;
  }
  const std::optional<SegmentRecordView> view =
      ViewSegmentRecord(file_bytes.data(), file_bytes.size(), offset);
  return view.has_value() && view->intact && view->length == length;
}

}  // namespace mergeable
