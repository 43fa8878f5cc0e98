// Report framing for the aggregation pipeline.
//
// A worker ships its summary to the coordinator inside a frame that
// carries enough metadata to survive a hostile network: a magic tag, the
// shard id and epoch (the dedup key), a length-prefixed payload, and a
// checksum over all of it. The coordinator rejects any frame whose
// checksum does not match, so truncation and bit corruption are caught
// before the payload ever reaches a summary decoder; the decoders'
// own validation is the second line of defense, not the first.
//
// There is one report frame: BAT1 (below). A single report is a
// one-record batch — merge-tree independence folds a batch of one
// exactly like a batch of N — so the coordinator, the server and the
// client all speak the same frame whether they ship one report or many.

// A second, smaller envelope carries *typed* payloads: a summary
// encoding prefixed by its registry tag (summary_registry.h),
// checksummed the same way. It wraps only the merged summary of an ANS1
// answer, so a client knows which decoder to dispatch to before
// touching the payload, and a payload of the wrong type is rejected by
// tag comparison instead of by a decoder accidentally accepting foreign
// bytes. (The summary store's records carry a bare tag inside their
// SEG1 frame instead: store/summary_store.h.)
//
//   u32  magic        'S','U','M','1'
//   u32  tag          SummaryTag (must be registered)
//   u32  payload_len  followed by payload_len raw payload bytes
//   u64  checksum     FrameChecksum(tag, 0, payload)

#ifndef MERGEABLE_AGGREGATE_WIRE_H_
#define MERGEABLE_AGGREGATE_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/util/bytes.h"

namespace mergeable {

// One worker report: which shard produced it, in which aggregation
// round, and the encoded summary bytes.
struct WireReport {
  uint64_t shard_id = 0;
  uint64_t epoch = 0;
  std::vector<uint8_t> payload;
};

// Mixing checksum over two header words and a payload. Not
// cryptographic: it defends against corruption, not forgery (same trust
// model as a CRC). The header (a, b, payload size) is chained with
// MixHash from a fixed seed (kFrameChecksumSeed, wire.cc); the payload
// then goes through ChecksumBytes (util/hash.h), one serial chain under
// 64 bytes and four lanes from 64 bytes on. The sealed envelope below
// passes (magic, body_len); a tagged payload passes (tag, 0).
uint64_t FrameChecksum(uint64_t a, uint64_t b, const uint8_t* payload,
                       size_t size);

// ---- Sealed frames ----
//
// Every frame the socket ingest service (server/) speaks, and every
// SEG1 record (store/segment.h), is one envelope, written only by
// FrameWriter and read only by ViewSealedFrame:
//
//   u32  magic        four ASCII bytes naming the type
//   u32  body_len     followed by body_len bytes of type-specific body
//   u64  checksum     FrameChecksum(magic, body_len, body)
//
//   'N','A','K','1'  control: a verdict outside the report path — the
//                    answer to a TOP1 announcement, or the loop
//                    thread's hard reject of an unroutable frame.
//                    Body: u32 code, u64 shard_id, u64 epoch,
//                    u64 retry_after_ms.
//   'Q','R','Y','1'  query request: stream, [t1, t2] epoch range and a
//                    deadline budget in virtual ms (0 = unbounded).
//   'A','N','S','1'  query answer: status, partial-coverage marker, the
//                    range's epsilon report and (on success) the tagged
//                    summary payload.

// A ByteWriter that starts with the magic and a body-length slot: the
// caller appends the body in place, and Seal() patches the length and
// appends the checksum, so the body is written once and never copied.
// `body_size`, when known, builds the frame in one allocation.
class FrameWriter : public ByteWriter {
 public:
  explicit FrameWriter(uint32_t magic, size_t body_size = 0);
  size_t body_size() const { return size() - 8; }
  // The finished frame; the writer is spent.
  std::vector<uint8_t> Seal() &&;

 private:
  uint32_t magic_;
};

// A sealed frame at the front of a byte range, seen in place.
struct SealedFrameView {
  size_t length = 0;    // The whole frame, magic..checksum.
  bool intact = false;  // The checksum matches the body.
  std::span<const uint8_t> body;
};

// The sealed `magic` frame at the front of [data, data + size), or
// std::nullopt when those bytes do not frame one (another magic, or a
// body and checksum that run past `size`: a truncated frame or a torn
// segment tail). Bytes may follow the frame; a caller that expects
// exactly one compares `length` with `size`. Never aborts.
std::optional<SealedFrameView> ViewSealedFrame(uint32_t magic,
                                               const uint8_t* data,
                                               size_t size);

// The server's verdict on one frame, or on one report of a batch.
enum class ControlCode : uint32_t {
  kAccepted = 1,    // Report admitted and recorded; do not resend.
  kRetryAfter = 2,  // Shed under overload: resend after retry_after_ms.
  kDuplicate = 3,   // (shard, epoch) already recorded; do not resend.
  kRejected = 4,    // Malformed / misrouted; retrying cannot help.
};

struct WireControl {
  ControlCode code = ControlCode::kAccepted;
  uint64_t shard_id = 0;
  uint64_t epoch = 0;
  uint64_t retry_after_ms = 0;  // Meaningful for kRetryAfter only.
};

std::vector<uint8_t> EncodeControlFrame(const WireControl& control);
std::optional<WireControl> DecodeControlFrame(
    const std::vector<uint8_t>& frame);

// ---- Report frames ----
//
// One syscall per report caps the socket path orders of magnitude below
// the in-process batched sketch paths, so the transport ships many
// reports per frame — and a single report is simply a one-record
// frame:
//
//   'B','A','T','1'  a length-prefixed vector of report records under
//                    one checksum. Body: u32 count, then count records
//                    of (u64 shard_id, u64 epoch, length-prefixed
//                    payload). Decoding is hardened like every other
//                    frame: the count is bounds-checked against the
//                    actual body bytes before anything is reserved, so
//                    a hostile count cannot allocate.
//   'B','V','D','1'  the server's verdict on one batch. A whole-batch
//                    code (kRetryAfter = the batch was shed at
//                    admission, resend everything after retry_after_ms;
//                    kRejected = the frame itself is malformed) or
//                    kAccepted with one per-report code per record, in
//                    record order — so a 256-report batch costs one
//                    response frame, not 256.

// Reports per batch are bounded independently of kMaxFrameBytes so a
// hostile count field can neither allocate nor distort admission
// accounting (each record is at least 20 bytes, enforced on decode).
inline constexpr uint32_t kMaxBatchReports = 1u << 16;

struct WireBatch {
  std::vector<WireReport> reports;
};

// Builds a BAT1 frame record by record, each written once, in place;
// Seal() patches the count. EncodeBatchFrame and the client's open
// batch (server/client.h) both write records through it. More than
// kMaxBatchReports records is a programming error and aborts.
class BatchFrameWriter {
 public:
  // `body_size`, when known, is the count slot plus every record.
  explicit BatchFrameWriter(size_t body_size = 0);
  void Add(uint64_t shard_id, uint64_t epoch, const uint8_t* payload,
           size_t size);
  uint32_t count() const { return count_; }
  size_t body_size() const { return frame_.body_size(); }
  std::vector<uint8_t> Seal() &&;

 private:
  FrameWriter frame_;
  uint32_t count_ = 0;
};

std::vector<uint8_t> EncodeBatchFrame(const WireBatch& batch);

// One batch record seen in place: `payload` points into the viewed
// frame and is valid only while that frame's bytes are.
struct BatchRecordView {
  uint64_t shard_id = 0;
  uint64_t epoch = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
};

// The one BAT1 validator: opens the envelope (ViewSealedFrame: magic,
// length, checksum, no trailing bytes), checks the count bound and
// every record's bounds, and yields views into `frame` instead of
// copying each payload out — the server
// and the coordinator decode summaries straight from the frame,
// skipping one allocation and copy per record. `records` is cleared
// first; false (with `records` empty) on any malformation. Never
// aborts: frames are network data.
bool ViewBatchFrame(const std::vector<uint8_t>& frame,
                    std::vector<BatchRecordView>* records);

// ViewBatchFrame with every payload copied out.
std::optional<WireBatch> DecodeBatchFrame(const std::vector<uint8_t>& frame);

// Reads the claimed report count of a batch frame without validating
// payloads or checksum — enough for the loop thread to account a shed
// batch and synthesize its NACK. The returned count is clamped to what
// the frame's size could actually carry (and to kMaxBatchReports), so a
// lying header cannot inflate admission accounting. False for frames
// too short to carry a count.
bool PeekBatchReportCount(const std::vector<uint8_t>& frame,
                          uint32_t* count);

struct WireBatchVerdict {
  // Verdict for the frame as a whole. kAccepted means the batch was
  // processed and `codes` holds one verdict per record; anything else
  // applies to every record and `codes` is empty.
  ControlCode batch_code = ControlCode::kAccepted;
  uint64_t retry_after_ms = 0;  // Meaningful for kRetryAfter codes.
  std::vector<ControlCode> codes;
};

std::vector<uint8_t> EncodeBatchVerdictFrame(const WireBatchVerdict& verdict);
std::optional<WireBatchVerdict> DecodeBatchVerdictFrame(
    const std::vector<uint8_t>& frame);

// A range query shipped to the server: epochs [t1, t2] of `stream`,
// answered within `deadline_ms` of virtual merge budget (0 = no
// deadline). A query that cannot merge its covering nodes in time comes
// back partial with a correspondingly widened epsilon, never blocked.
//
// `window` > 0 selects sliding-window addressing instead: "the last
// `window` sealed epochs", resolved by the server against the stream's
// current history (clamped when the history is shorter); t1/t2 in the
// request are then ignored and the answer echoes the absolute range the
// window resolved to. window == 0 is the classic absolute-range query.
struct WireQuery {
  uint64_t stream = 0;
  uint64_t t1 = 0;
  uint64_t t2 = 0;
  uint64_t deadline_ms = 0;
  uint64_t window = 0;
};

std::vector<uint8_t> EncodeQueryFrame(const WireQuery& query);
std::optional<WireQuery> DecodeQueryFrame(const std::vector<uint8_t>& frame);

enum class AnswerStatus : uint32_t {
  kOk = 1,            // Payload holds the merged summary for the range.
  kUnknownRange = 2,  // Stream unknown or range not fully sealed.
};

// A query answer: the epsilon report of the covered epochs plus the
// merged summary as a tagged payload (wire.h envelope). `partial` marks
// deadline-bounded answers that cover only [t1, t1 + epochs_covered);
// the mass of the uncovered suffix is already folded into lost_mass /
// full_stream_bound, so the bound stays honest.
struct WireAnswer {
  uint64_t stream = 0;
  uint64_t t1 = 0;
  uint64_t t2 = 0;
  AnswerStatus status = AnswerStatus::kOk;
  bool partial = false;
  uint64_t epochs_covered = 0;
  // EpsilonReport fields (store/epoch_meta.h), flattened for the wire.
  double epsilon = 0.0;
  uint64_t epochs = 0;
  uint64_t degraded_epochs = 0;
  double coverage = 1.0;
  uint64_t n_received = 0;
  uint64_t lost_mass = 0;
  bool lost_mass_estimated = false;
  double received_bound = 0.0;
  double full_stream_bound = 0.0;
  // Tagged summary payload (empty unless status == kOk).
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeAnswerFrame(const WireAnswer& answer);
std::optional<WireAnswer> DecodeAnswerFrame(const std::vector<uint8_t>& frame);

// ---- Topology (autoscale) frames ----
//
// A rebalance controller announces a shard-count change to the
// coordinator with a topology frame:
//
//   'T','O','P','1'  epoch-scoped shard split/join announcement. Body:
//                    u64 effective_epoch, u64 shard_count, u32 op
//                    count, then per op (u32 kind, u64 parent,
//                    u64 child_a, u64 child_b). The server answers with
//                    a control frame: kAccepted echoes
//                    (shard_id = shard_count, epoch = effective_epoch);
//                    kRejected means the change was refused (epoch
//                    already open for sealing, or a malformed count).
//
// The change is *epoch-scoped*: epochs before `effective_epoch` keep
// their previous shard count, epochs at or after it expect
// `shard_count` reports before sealing at full coverage. The op list is
// the summary-level migration recipe (which shard's summary Split()s
// into which children, which pairs Merge() back together); the
// coordinator's admission decision depends only on the header, so a
// controller may send an empty op list when shards migrate their own
// state.

// Ops per topology frame are bounded independently of kMaxFrameBytes so
// a hostile count cannot allocate (each op is 28 bytes, enforced on
// decode).
inline constexpr uint32_t kMaxTopologyOps = 1u << 16;

enum class TopologyOpKind : uint32_t {
  kSplit = 1,  // `parent` repartitions into `child_a` and `child_b`.
  kJoin = 2,   // `child_a` and `child_b` merge back into `parent`.
};

struct TopologyOp {
  TopologyOpKind kind = TopologyOpKind::kSplit;
  uint64_t parent = 0;
  uint64_t child_a = 0;
  uint64_t child_b = 0;
};

struct WireTopology {
  uint64_t effective_epoch = 0;  // First epoch the new count applies to.
  uint64_t shard_count = 0;      // Shards per epoch from then on (>= 1).
  std::vector<TopologyOp> ops;   // Migration recipe; may be empty.
};

std::vector<uint8_t> EncodeTopologyFrame(const WireTopology& topology);
std::optional<WireTopology> DecodeTopologyFrame(
    const std::vector<uint8_t>& frame);

// Frame classification by magic — how the server routes an incoming
// frame to the right decoder (and the right admission class) without
// parsing the body.
enum class FrameKind {
  kTagged,
  kControl,
  kQuery,
  kAnswer,
  kBatch,
  kBatchVerdict,
  kTopology,
  kUnknown,  // Too short or unrecognized magic.
};

FrameKind PeekFrameKind(const std::vector<uint8_t>& frame);

// ---- Frame codec registry ----
//
// Every frame codec above is a parser of untrusted network bytes, so
// each gets the same corrupt-input battery and mutation fuzzing the
// summary codecs get via summary_registry.h. One table entry per frame
// type: a probe (does the frame decode + survive an encode round-trip)
// and a deterministic corpus of real encodings covering the structural
// variants (empty / filled / edge-value bodies).
struct FrameCodecInfo {
  const char* name;
  // Whether the frame decodes; when it does, the probe also asserts the
  // decode→encode round trip is a byte-for-byte fixed point (aborts on
  // violation — that is a codec bug, not bad input).
  bool (*probe)(const std::vector<uint8_t>& frame);
  std::vector<std::vector<uint8_t>> (*corpus)(uint64_t seed);
};

// Every frame codec, in a fixed order: tagged payload, control, query,
// answer, batch, batch verdict, topology. Tests iterate this
// table, so a frame type added here is automatically fuzzed and
// corruption-tested.
const std::vector<FrameCodecInfo>& FrameRegistry();

// A summary encoding annotated with its registry tag.
struct TaggedPayload {
  SummaryTag tag = SummaryTag::kMisraGries;
  std::vector<uint8_t> payload;
};

// Serializes `payload` under `tag`. The tag must be registered
// (summary_registry.h) — an unknown tag is a programming error and
// aborts, because the writer controls its own tags.
std::vector<uint8_t> EncodeTaggedPayload(SummaryTag tag,
                                         const std::vector<uint8_t>& payload);

// A tagged payload verified in place: `payload` points into the viewed
// bytes and is valid only while they are.
struct TaggedPayloadView {
  SummaryTag tag = SummaryTag::kMisraGries;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
};

// Parses a tagged payload; std::nullopt on bad magic, unregistered tag,
// truncation, trailing bytes, or checksum mismatch. Never aborts: these
// bytes come off the network, which can tear and flip bits.
std::optional<TaggedPayloadView> ViewTaggedPayload(const uint8_t* bytes,
                                                   size_t size);

// ViewTaggedPayload with the payload copied out.
std::optional<TaggedPayload> DecodeTaggedPayload(
    const std::vector<uint8_t>& bytes);

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_WIRE_H_
