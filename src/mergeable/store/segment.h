// Per-record-checksummed segment files: the durable store's log format.
//
// A segment file is a flat sequence of framed records, one per sealed
// epoch leaf or dyadic merge node. The aggregation coordinator's log
// (aggregate/coordinator.h) is the same frame with its own key:
// (stream = epoch, level = record kind, index).
//
//   u32  magic       'S','E','G','1'
//   u32  body_len    followed by the body:
//          u64 stream
//          u32 level          0 = epoch leaf, >=1 = dyadic merge node
//          u64 index          leaf index / node index at that level
//          u32 payload_len + payload
//                     level 0: an epoch record (epoch_meta.h — metadata
//                     plus tagged summary payload); level >= 1: a
//                     tagged summary payload (wire.h)
//   u64  checksum    SegmentChecksum over the body
//
// The format is append-only and latest-wins: a later record for the
// same (stream, level, index) supersedes an earlier one, which is how
// the scrubber repairs a rotted merge node without rewriting history.
// Scanning is resilient at two granularities: a torn tail (the record
// that was mid-append when the process died) ends the scan and is
// truncated away, while a record whose framing is intact but whose
// checksum fails — bit rot — is reported with its location and skipped,
// so one flipped bit quarantines one record, not the rest of the file.
// (The coordinator's log ends its usable prefix at the first corrupt
// record instead: its replay must not skip a record.)

#ifndef MERGEABLE_STORE_SEGMENT_H_
#define MERGEABLE_STORE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mergeable {

struct SegmentRecord {
  uint64_t stream = 0;
  uint32_t level = 0;
  uint64_t index = 0;
  std::vector<uint8_t> payload;
};

// The SEG1 checksum: the body size chained with MixHash from the seed
// 'SEG1', then the body through ChecksumBytes (util/hash.h) — the same
// kernel as the wire frames' FrameChecksum, four lanes from 64 bytes.
uint64_t SegmentChecksum(const uint8_t* body, size_t size);
uint64_t SegmentChecksum(const std::vector<uint8_t>& body);

// The record frame for `payload` stored under (stream, level, index).
std::vector<uint8_t> EncodeSegmentFrame(uint64_t stream, uint32_t level,
                                        uint64_t index,
                                        const uint8_t* payload, size_t size);
std::vector<uint8_t> EncodeSegmentRecord(const SegmentRecord& record);

// One record frame verified where it sits in a segment buffer: its
// identity fields and the location of its payload, nothing copied.
struct SegmentRecordView {
  uint64_t offset = 0;  // Byte offset of the frame within the buffer.
  uint64_t length = 0;  // Full frame length (magic..checksum).
  // False when the framing parsed but the checksum (or body) did not:
  // the record's identity fields cannot be trusted and are left zero.
  bool intact = false;
  uint64_t stream = 0;
  uint32_t level = 0;
  uint64_t index = 0;
  uint64_t payload_offset = 0;  // Into the buffer, like `offset`.
  uint64_t payload_length = 0;
};

// What a scan of one segment file concluded.
struct SegmentScanTotals {
  // Bytes of cleanly framed records; anything past this is a torn tail
  // (or garbage) the owner should truncate away.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
  uint64_t corrupt_records = 0;  // Framed-but-checksum-failed entries.
};

// Walks every framed record of bytes [0, size) in order, handing each
// one (intact or corrupt) to `visit` as a view into the buffer, and
// stops at the first bytes that do not frame a record.
SegmentScanTotals WalkSegment(
    const uint8_t* bytes, size_t size,
    const std::function<void(const SegmentRecordView&)>& visit);

// One record's location and parse within a scanned segment file.
struct SegmentEntry {
  uint64_t offset = 0;  // Byte offset of the frame within the file.
  uint64_t length = 0;  // Full frame length (magic..checksum).
  // False when the framing parsed but the checksum (or body) did not:
  // the record's identity fields cannot be trusted and are left zero.
  bool intact = false;
  SegmentRecord record;
};

struct SegmentScan : SegmentScanTotals {
  std::vector<SegmentEntry> entries;  // Intact and corrupt, in order.
};

// WalkSegment with every record copied out.
SegmentScan ScanSegment(const std::vector<uint8_t>& bytes);

// Checks one frame read back whole from its known location (a page-in):
// the magic, a body length that fills exactly `size` bytes, a
// well-formed body and the (stream, level, index) key. The SEG1
// checksum is not recomputed — the payload envelopes carry their own
// checksums over every payload byte, and Open() and the scrubber verify
// frames. On success the view's payload fields locate the payload
// within `frame` and `intact` is true.
std::optional<SegmentRecordView> ViewPagedRecord(const uint8_t* frame,
                                                 size_t size,
                                                 uint64_t stream,
                                                 uint32_t level,
                                                 uint64_t index);

// Re-verifies a single record frame in place (the scrubber's unit of
// work): true iff bytes [offset, offset+length) of `file_bytes` hold an
// intact record. Out-of-range slices are simply not intact.
bool VerifySegmentRecordAt(const std::vector<uint8_t>& file_bytes,
                           uint64_t offset, uint64_t length);

}  // namespace mergeable

#endif  // MERGEABLE_STORE_SEGMENT_H_
