#include "mergeable/store/segment.h"

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {
namespace {

// 'S' 'E' 'G' '1' read as a little-endian u32.
constexpr uint32_t kSegmentMagic = 0x31474553;

// One frame's fixed overhead: magic + body length prefix + checksum.
constexpr uint64_t kFrameOverhead = 4 + 4 + 8;

}  // namespace

uint64_t SegmentChecksum(const uint8_t* body, size_t size) {
  uint64_t h = MixHash(size, /*seed=*/0x53454731);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    for (int b = 7; b >= 0; --b) word = (word << 8) | body[i + b];
    h = MixHash(word, h);
  }
  uint64_t tail = 0;
  for (size_t j = size; j > i; --j) tail = (tail << 8) | body[j - 1];
  return MixHash(tail, h);
}

uint64_t SegmentChecksum(const std::vector<uint8_t>& body) {
  return SegmentChecksum(body.data(), body.size());
}

std::vector<uint8_t> EncodeSegmentRecord(const SegmentRecord& record) {
  ByteWriter body;
  body.PutU64(record.stream);
  body.PutU32(record.level);
  body.PutU64(record.index);
  body.PutBytes(record.payload);
  const std::vector<uint8_t> body_bytes = body.bytes();

  ByteWriter frame;
  frame.PutU32(kSegmentMagic);
  frame.PutBytes(body_bytes);
  frame.PutU64(SegmentChecksum(body_bytes));
  return frame.TakeBytes();
}

namespace {

// Parses the frame starting at `offset` of bytes [0, size) and checks
// its SEG1 checksum in place. std::nullopt when the bytes do not even
// frame a record (torn tail or untracked garbage); otherwise the view,
// intact or checksum-corrupt.
std::optional<SegmentRecordView> ViewSegmentRecord(const uint8_t* bytes,
                                                   size_t size,
                                                   uint64_t offset) {
  if (offset > size) return std::nullopt;
  ByteReader reader(bytes + offset, size - offset);
  uint32_t magic = 0;
  uint32_t body_len = 0;
  if (!reader.GetU32(&magic) || magic != kSegmentMagic ||
      !reader.GetU32(&body_len) || !reader.Skip(body_len)) {
    return std::nullopt;
  }
  uint64_t checksum = 0;
  if (!reader.GetU64(&checksum)) return std::nullopt;

  SegmentRecordView view;
  view.offset = offset;
  view.length = kFrameOverhead + body_len;
  const uint8_t* body = bytes + offset + 8;
  if (checksum != SegmentChecksum(body, body_len)) return view;  // Not intact.

  ByteReader body_reader(body, body_len);
  uint64_t stream = 0;
  uint32_t level = 0;
  uint64_t index = 0;
  uint32_t payload_len = 0;
  if (!body_reader.GetU64(&stream) || !body_reader.GetU32(&level) ||
      !body_reader.GetU64(&index) || !body_reader.GetU32(&payload_len) ||
      body_reader.remaining() != payload_len) {
    return view;  // Checksummed but malformed: treat as corrupt.
  }
  view.intact = true;
  view.stream = stream;
  view.level = level;
  view.index = index;
  view.payload_offset = offset + 8 + (body_len - payload_len);
  view.payload_length = payload_len;
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
