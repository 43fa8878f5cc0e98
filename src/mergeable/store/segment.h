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
//                     the store's leaf and node payloads are laid out
//                     in summary_store.h; they carry no envelope of
//                     their own
//   u64  checksum    FrameChecksum(magic, body_len, body)
//
// That is the sealed envelope of wire.h, written by its FrameWriter and
// read by its ViewSealedFrame, like every wire frame. It is a record's
// only envelope and its checksum the only one over the record's bytes:
// written once at append, verified on every read — by WalkSegment at
// Open(), and by VerifySegmentRecord at a page-in and in the scrubber.
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
#include <vector>

#include "mergeable/aggregate/wire.h"

namespace mergeable {

// A record frame under (stream, level, index) with its key and the
// length of a `payload_size`-byte payload written: the caller appends
// exactly that payload in place (PutRaw and friends) and seals the
// frame, so the payload is copied once, into the frame.
FrameWriter StartSegmentFrame(uint64_t stream, uint32_t level,
                              uint64_t index, size_t payload_size);

// The record frame for `payload` stored under (stream, level, index).
std::vector<uint8_t> EncodeSegmentFrame(uint64_t stream, uint32_t level,
                                        uint64_t index,
                                        const uint8_t* payload, size_t size);

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

// Verifies one frame read back whole from its known location — a
// page-in's range read, or the scrubber's slice of a segment buffer:
// the magic, a body length that fills exactly `size` bytes, the SEG1
// checksum, a well-formed body and the (stream, level, index) key the
// manifest filed it under. On success the view is intact and its
// payload fields locate the payload within `frame`.
std::optional<SegmentRecordView> VerifySegmentRecord(const uint8_t* frame,
                                                     size_t size,
                                                     uint64_t stream,
                                                     uint32_t level,
                                                     uint64_t index);

}  // namespace mergeable

#endif  // MERGEABLE_STORE_SEGMENT_H_
