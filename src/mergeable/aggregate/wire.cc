#include "mergeable/aggregate/wire.h"

#include <algorithm>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// The checksum seed: 'R' 'P' 'T' '1' spelled as a big-endian u32, after
// the retired single-report frame; kept so that no wire or stored
// checksum changes.
constexpr uint64_t kFrameChecksumSeed = 0x52505431;
// 'S' 'U' 'M' '1' read as a little-endian u32.
constexpr uint32_t kTaggedPayloadMagic = 0x314d5553;
// 'N' 'A' 'K' '1' read as a little-endian u32.
constexpr uint32_t kControlMagic = 0x314b414e;
// 'Q' 'R' 'Y' '1' read as a little-endian u32.
constexpr uint32_t kQueryMagic = 0x31595251;
// 'B' 'A' 'T' '1' read as a little-endian u32.
constexpr uint32_t kBatchMagic = 0x31544142;
// 'B' 'V' 'D' '1' read as a little-endian u32.
constexpr uint32_t kBatchVerdictMagic = 0x31445642;
// 'A' 'N' 'S' '1' read as a little-endian u32.
constexpr uint32_t kAnswerMagic = 0x31534e41;
// 'T' 'O' 'P' '1' read as a little-endian u32.
constexpr uint32_t kTopologyMagic = 0x31504f54;

// The body of the sealed `magic` frame that fills `frame` exactly and
// whose checksum holds; std::nullopt otherwise.
std::optional<std::span<const uint8_t>> SealedBody(
    uint32_t magic, const std::vector<uint8_t>& frame) {
  const std::optional<SealedFrameView> view =
      ViewSealedFrame(magic, frame.data(), frame.size());
  if (!view.has_value() || !view->intact || view->length != frame.size()) {
    return std::nullopt;
  }
  return view->body;
}

bool IsControlCode(uint32_t raw) {
  switch (static_cast<ControlCode>(raw)) {
    case ControlCode::kAccepted:
    case ControlCode::kRetryAfter:
    case ControlCode::kDuplicate:
    case ControlCode::kRejected:
      return true;
  }
  return false;
}

}  // namespace

uint64_t FrameChecksum(uint64_t a, uint64_t b, const uint8_t* payload,
                       size_t size) {
  uint64_t h = MixHash(a, kFrameChecksumSeed);
  h = MixHash(b, h);
  h = MixHash(size, h);
  return ChecksumBytes(h, payload, size);
}

FrameWriter::FrameWriter(uint32_t magic, size_t body_size) : magic_(magic) {
  Reserve(4 + 4 + body_size + 8);
  PutU32(magic);
  PutU32(0);  // body_len, patched by Seal().
}

std::vector<uint8_t> FrameWriter::Seal() && {
  const auto body_len = static_cast<uint32_t>(body_size());
  PatchU32(4, body_len);
  PutU64(FrameChecksum(magic_, body_len, bytes().data() + 8, body_len));
  return TakeBytes();
}

std::optional<SealedFrameView> ViewSealedFrame(uint32_t magic,
                                               const uint8_t* data,
                                               size_t size) {
  ByteReader reader(data, size);
  uint32_t seen = 0;
  uint32_t body_len = 0;
  uint64_t checksum = 0;
  if (!reader.GetU32(&seen) || seen != magic || !reader.GetU32(&body_len) ||
      !reader.Skip(body_len) || !reader.GetU64(&checksum)) {
    return std::nullopt;
  }
  SealedFrameView view;
  view.length = 4 + 4 + size_t{body_len} + 8;
  view.body = {data + 8, body_len};
  view.intact = checksum == FrameChecksum(magic, body_len, data + 8, body_len);
  return view;
}

std::vector<uint8_t> EncodeControlFrame(const WireControl& control) {
  FrameWriter body(kControlMagic, 4 + 8 + 8 + 8);
  body.PutU32(static_cast<uint32_t>(control.code));
  body.PutU64(control.shard_id);
  body.PutU64(control.epoch);
  body.PutU64(control.retry_after_ms);
  return std::move(body).Seal();
}

std::optional<WireControl> DecodeControlFrame(
    const std::vector<uint8_t>& frame) {
  const auto body = SealedBody(kControlMagic, frame);
  if (!body.has_value()) return std::nullopt;
  ByteReader reader(body->data(), body->size());
  uint32_t code = 0;
  WireControl control;
  if (!reader.GetU32(&code) || !IsControlCode(code)) return std::nullopt;
  control.code = static_cast<ControlCode>(code);
  if (!reader.GetU64(&control.shard_id) || !reader.GetU64(&control.epoch) ||
      !reader.GetU64(&control.retry_after_ms) || !reader.Exhausted()) {
    return std::nullopt;
  }
  return control;
}

// Minimum encoded size of one batch record: shard (8) + epoch (8) +
// payload length prefix (4). Decoding bounds the claimed count by the
// actual body bytes through this, before any reserve.
constexpr size_t kMinBatchRecordBytes = 20;

BatchFrameWriter::BatchFrameWriter(size_t body_size)
    : frame_(kBatchMagic, body_size) {
  frame_.PutU32(0);  // count, patched by Seal().
}

void BatchFrameWriter::Add(uint64_t shard_id, uint64_t epoch,
                           const uint8_t* payload, size_t size) {
  MERGEABLE_CHECK_MSG(count_ < kMaxBatchReports,
                      "BatchFrameWriter: too many reports for one frame");
  frame_.PutU64(shard_id);
  frame_.PutU64(epoch);
  frame_.PutBytes(payload, size);
  ++count_;
}

std::vector<uint8_t> BatchFrameWriter::Seal() && {
  frame_.PatchU32(8, count_);
  return std::move(frame_).Seal();
}

std::vector<uint8_t> EncodeBatchFrame(const WireBatch& batch) {
  size_t body_size = 4;
  for (const WireReport& report : batch.reports) {
    body_size += kMinBatchRecordBytes + report.payload.size();
  }
  BatchFrameWriter writer(body_size);
  for (const WireReport& report : batch.reports) {
    writer.Add(report.shard_id, report.epoch, report.payload.data(),
               report.payload.size());
  }
  return std::move(writer).Seal();
}

bool ViewBatchFrame(const std::vector<uint8_t>& frame,
                    std::vector<BatchRecordView>* records) {
  records->clear();
  const auto body = SealedBody(kBatchMagic, frame);
  if (!body.has_value()) return false;
  ByteReader reader(body->data(), body->size());
  uint32_t count = 0;
  if (!reader.GetU32(&count) || count > kMaxBatchReports) return false;
  // Allocation-bomb hardening: the body must physically be able to
  // hold `count` records before reserving.
  if (static_cast<size_t>(count) * kMinBatchRecordBytes >
      reader.remaining()) {
    return false;
  }
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchRecordView view;
    uint32_t len = 0;
    if (!reader.GetU64(&view.shard_id) || !reader.GetU64(&view.epoch) ||
        !reader.GetU32(&len) || reader.remaining() < len) {
      records->clear();
      return false;
    }
    view.payload = body->data() + (body->size() - reader.remaining());
    view.payload_len = len;
    reader.Skip(len);
    records->push_back(view);
  }
  if (!reader.Exhausted()) {
    records->clear();
    return false;
  }
  return true;
}

std::optional<WireBatch> DecodeBatchFrame(
    const std::vector<uint8_t>& frame) {
  std::vector<BatchRecordView> records;
  if (!ViewBatchFrame(frame, &records)) return std::nullopt;
  WireBatch batch;
  batch.reports.reserve(records.size());
  for (const BatchRecordView& record : records) {
    batch.reports.push_back(
        {record.shard_id, record.epoch,
         std::vector<uint8_t>(record.payload,
                              record.payload + record.payload_len)});
  }
  return batch;
}

bool PeekBatchReportCount(const std::vector<uint8_t>& frame,
                          uint32_t* count) {
  ByteReader reader(frame);
  uint32_t magic = 0;
  uint32_t body_len = 0;
  uint32_t claimed = 0;
  if (!reader.GetU32(&magic) || magic != kBatchMagic ||
      !reader.GetU32(&body_len) || !reader.GetU32(&claimed)) {
    return false;
  }
  // Clamp a lying header to what the frame could actually carry, so a
  // 40-byte frame claiming 2^32 reports is charged for at most what it
  // could hold; the worker's full decode rejects it either way.
  uint64_t cap = frame.size() / kMinBatchRecordBytes;
  if (cap > kMaxBatchReports) cap = kMaxBatchReports;
  *count = static_cast<uint32_t>(
      std::min<uint64_t>(claimed, cap));
  return true;
}

std::vector<uint8_t> EncodeBatchVerdictFrame(
    const WireBatchVerdict& verdict) {
  MERGEABLE_CHECK_MSG(
      verdict.batch_code == ControlCode::kAccepted || verdict.codes.empty(),
      "per-report codes only accompany an accepted batch");
  MERGEABLE_CHECK_MSG(verdict.codes.size() <= kMaxBatchReports,
                      "EncodeBatchVerdictFrame: too many codes");
  FrameWriter body(kBatchVerdictMagic,
                   4 + 8 + 4 + 4 * verdict.codes.size());
  body.PutU32(static_cast<uint32_t>(verdict.batch_code));
  body.PutU64(verdict.retry_after_ms);
  body.PutU32(static_cast<uint32_t>(verdict.codes.size()));
  for (ControlCode code : verdict.codes) {
    body.PutU32(static_cast<uint32_t>(code));
  }
  return std::move(body).Seal();
}

std::optional<WireBatchVerdict> DecodeBatchVerdictFrame(
    const std::vector<uint8_t>& frame) {
  const auto body = SealedBody(kBatchVerdictMagic, frame);
  if (!body.has_value()) return std::nullopt;
  ByteReader reader(body->data(), body->size());
  WireBatchVerdict verdict;
  uint32_t batch_code = 0;
  uint32_t count = 0;
  if (!reader.GetU32(&batch_code) || !IsControlCode(batch_code) ||
      !reader.GetU64(&verdict.retry_after_ms) || !reader.GetU32(&count)) {
    return std::nullopt;
  }
  verdict.batch_code = static_cast<ControlCode>(batch_code);
  if (count > kMaxBatchReports) return std::nullopt;
  // A non-accepted verdict applies to the whole batch; per-report codes
  // would be meaningless there, so their presence marks corruption.
  if (verdict.batch_code != ControlCode::kAccepted && count != 0) {
    return std::nullopt;
  }
  if (static_cast<size_t>(count) * 4 > reader.remaining()) {
    return std::nullopt;
  }
  verdict.codes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t code = 0;
    if (!reader.GetU32(&code) || !IsControlCode(code)) return std::nullopt;
    verdict.codes.push_back(static_cast<ControlCode>(code));
  }
  if (!reader.Exhausted()) return std::nullopt;
  return verdict;
}

std::vector<uint8_t> EncodeQueryFrame(const WireQuery& query) {
  FrameWriter body(kQueryMagic, 5 * 8);
  body.PutU64(query.stream);
  body.PutU64(query.t1);
  body.PutU64(query.t2);
  body.PutU64(query.deadline_ms);
  body.PutU64(query.window);
  return std::move(body).Seal();
}

std::optional<WireQuery> DecodeQueryFrame(const std::vector<uint8_t>& frame) {
  const auto body = SealedBody(kQueryMagic, frame);
  if (!body.has_value()) return std::nullopt;
  ByteReader reader(body->data(), body->size());
  WireQuery query;
  if (!reader.GetU64(&query.stream) || !reader.GetU64(&query.t1) ||
      !reader.GetU64(&query.t2) || !reader.GetU64(&query.deadline_ms) ||
      !reader.GetU64(&query.window) || !reader.Exhausted()) {
    return std::nullopt;
  }
  // An absolute-range query with t1 > t2 is never valid; a window query
  // derives its range server-side and ignores t1/t2 entirely.
  if (query.window == 0 && query.t1 > query.t2) return std::nullopt;
  return query;
}

// An answer body ahead of its payload: stream, t1 and t2, the u32
// status and partial marker, then nine 8-byte fields and one u32 flag
// (epochs_covered and the flattened epsilon report).
constexpr size_t kAnswerHeaderBytes = 3 * 8 + 2 * 4 + 9 * 8 + 4;

std::vector<uint8_t> EncodeAnswerFrame(const WireAnswer& answer) {
  FrameWriter body(kAnswerMagic,
                   kAnswerHeaderBytes + 4 + answer.payload.size());
  body.PutU64(answer.stream);
  body.PutU64(answer.t1);
  body.PutU64(answer.t2);
  body.PutU32(static_cast<uint32_t>(answer.status));
  body.PutU32(answer.partial ? 1 : 0);
  body.PutU64(answer.epochs_covered);
  body.PutDouble(answer.epsilon);
  body.PutU64(answer.epochs);
  body.PutU64(answer.degraded_epochs);
  body.PutDouble(answer.coverage);
  body.PutU64(answer.n_received);
  body.PutU64(answer.lost_mass);
  body.PutU32(answer.lost_mass_estimated ? 1 : 0);
  body.PutDouble(answer.received_bound);
  body.PutDouble(answer.full_stream_bound);
  body.PutBytes(answer.payload);
  return std::move(body).Seal();
}

std::optional<WireAnswer> DecodeAnswerFrame(
    const std::vector<uint8_t>& frame) {
  const auto body = SealedBody(kAnswerMagic, frame);
  if (!body.has_value()) return std::nullopt;
  ByteReader reader(body->data(), body->size());
  WireAnswer answer;
  uint32_t status = 0;
  uint32_t partial = 0;
  uint32_t estimated = 0;
  if (!reader.GetU64(&answer.stream) || !reader.GetU64(&answer.t1) ||
      !reader.GetU64(&answer.t2) || !reader.GetU32(&status) ||
      !reader.GetU32(&partial) || !reader.GetU64(&answer.epochs_covered) ||
      !reader.GetDouble(&answer.epsilon) || !reader.GetU64(&answer.epochs) ||
      !reader.GetU64(&answer.degraded_epochs) ||
      !reader.GetDouble(&answer.coverage) ||
      !reader.GetU64(&answer.n_received) ||
      !reader.GetU64(&answer.lost_mass) || !reader.GetU32(&estimated) ||
      !reader.GetDouble(&answer.received_bound) ||
      !reader.GetDouble(&answer.full_stream_bound) ||
      !reader.GetBytes(&answer.payload) || !reader.Exhausted()) {
    return std::nullopt;
  }
  if (status != static_cast<uint32_t>(AnswerStatus::kOk) &&
      status != static_cast<uint32_t>(AnswerStatus::kUnknownRange)) {
    return std::nullopt;
  }
  if (partial > 1 || estimated > 1) return std::nullopt;
  answer.status = static_cast<AnswerStatus>(status);
  answer.partial = partial == 1;
  answer.lost_mass_estimated = estimated == 1;
  return answer;
}

// Encoded size of one topology op: kind (4) + parent (8) + child_a (8)
// + child_b (8). Decoding bounds the claimed op count by the actual
// body bytes through this, before any reserve.
constexpr size_t kTopologyOpBytes = 28;

std::vector<uint8_t> EncodeTopologyFrame(const WireTopology& topology) {
  MERGEABLE_CHECK_MSG(topology.ops.size() <= kMaxTopologyOps,
                      "EncodeTopologyFrame: too many ops for one frame");
  FrameWriter body(kTopologyMagic,
                   8 + 8 + 4 + kTopologyOpBytes * topology.ops.size());
  body.PutU64(topology.effective_epoch);
  body.PutU64(topology.shard_count);
  body.PutU32(static_cast<uint32_t>(topology.ops.size()));
  for (const TopologyOp& op : topology.ops) {
    body.PutU32(static_cast<uint32_t>(op.kind));
    body.PutU64(op.parent);
    body.PutU64(op.child_a);
    body.PutU64(op.child_b);
  }
  return std::move(body).Seal();
}

std::optional<WireTopology> DecodeTopologyFrame(
    const std::vector<uint8_t>& frame) {
  const auto body = SealedBody(kTopologyMagic, frame);
  if (!body.has_value()) return std::nullopt;
  ByteReader reader(body->data(), body->size());
  WireTopology topology;
  uint32_t count = 0;
  if (!reader.GetU64(&topology.effective_epoch) ||
      !reader.GetU64(&topology.shard_count) || !reader.GetU32(&count)) {
    return std::nullopt;
  }
  if (topology.shard_count == 0) return std::nullopt;
  if (count > kMaxTopologyOps) return std::nullopt;
  // Allocation-bomb hardening: the body must physically be able to hold
  // `count` ops before a vector of that size is reserved.
  if (static_cast<size_t>(count) * kTopologyOpBytes > reader.remaining()) {
    return std::nullopt;
  }
  topology.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t kind = 0;
    TopologyOp op;
    if (!reader.GetU32(&kind) || !reader.GetU64(&op.parent) ||
        !reader.GetU64(&op.child_a) || !reader.GetU64(&op.child_b)) {
      return std::nullopt;
    }
    if (kind != static_cast<uint32_t>(TopologyOpKind::kSplit) &&
        kind != static_cast<uint32_t>(TopologyOpKind::kJoin)) {
      return std::nullopt;
    }
    op.kind = static_cast<TopologyOpKind>(kind);
    topology.ops.push_back(op);
  }
  if (!reader.Exhausted()) return std::nullopt;
  return topology;
}

FrameKind PeekFrameKind(const std::vector<uint8_t>& frame) {
  ByteReader reader(frame);
  uint32_t magic = 0;
  if (!reader.GetU32(&magic)) return FrameKind::kUnknown;
  switch (magic) {
    case kTaggedPayloadMagic: return FrameKind::kTagged;
    case kControlMagic: return FrameKind::kControl;
    case kQueryMagic: return FrameKind::kQuery;
    case kAnswerMagic: return FrameKind::kAnswer;
    case kBatchMagic: return FrameKind::kBatch;
    case kBatchVerdictMagic: return FrameKind::kBatchVerdict;
    case kTopologyMagic: return FrameKind::kTopology;
    default: return FrameKind::kUnknown;
  }
}

std::vector<uint8_t> EncodeTaggedPayload(SummaryTag tag,
                                         const std::vector<uint8_t>& payload) {
  MERGEABLE_CHECK_MSG(
      IsRegisteredSummaryTag(static_cast<uint32_t>(tag)),
      "EncodeTaggedPayload requires a registered summary tag");
  ByteWriter writer;
  writer.Reserve(4 + 4 + 4 + payload.size() + 8);
  writer.PutU32(kTaggedPayloadMagic);
  writer.PutU32(static_cast<uint32_t>(tag));
  writer.PutBytes(payload);
  writer.PutU64(FrameChecksum(static_cast<uint32_t>(tag), 0, payload.data(),
                              payload.size()));
  return writer.TakeBytes();
}

std::optional<TaggedPayloadView> ViewTaggedPayload(const uint8_t* bytes,
                                                   size_t size) {
  ByteReader reader(bytes, size);
  uint32_t magic = 0;
  if (!reader.GetU32(&magic) || magic != kTaggedPayloadMagic) {
    return std::nullopt;
  }
  uint32_t raw_tag = 0;
  if (!reader.GetU32(&raw_tag) || !IsRegisteredSummaryTag(raw_tag)) {
    return std::nullopt;
  }
  TaggedPayloadView tagged;
  tagged.tag = static_cast<SummaryTag>(raw_tag);
  uint32_t payload_len = 0;
  if (!reader.GetU32(&payload_len)) return std::nullopt;
  tagged.payload = bytes + (size - reader.remaining());
  tagged.payload_size = payload_len;
  if (!reader.Skip(payload_len)) return std::nullopt;
  uint64_t checksum = 0;
  if (!reader.GetU64(&checksum) || !reader.Exhausted()) return std::nullopt;
  if (checksum !=
      FrameChecksum(raw_tag, 0, tagged.payload, tagged.payload_size)) {
    return std::nullopt;
  }
  return tagged;
}

std::optional<TaggedPayload> DecodeTaggedPayload(
    const std::vector<uint8_t>& bytes) {
  const std::optional<TaggedPayloadView> view =
      ViewTaggedPayload(bytes.data(), bytes.size());
  if (!view.has_value()) return std::nullopt;
  return TaggedPayload{
      view->tag,
      std::vector<uint8_t>(view->payload, view->payload + view->payload_size)};
}

namespace {

// Seed-derived but deterministic field material for registry corpora.
std::vector<uint8_t> CorpusBytes(uint64_t seed, size_t size) {
  std::vector<uint8_t> bytes(size);
  uint64_t state = seed;
  for (auto& b : bytes) b = static_cast<uint8_t>(SplitMix64(state));
  return bytes;
}

// Whether `frame` decodes; when it does, the decode→encode round trip
// must give back the same bytes (a codec bug aborts).
template <auto Decode, auto Encode>
bool ProbeFrame(const std::vector<uint8_t>& frame) {
  const auto decoded = Decode(frame);
  if (!decoded.has_value()) return false;
  MERGEABLE_CHECK_MSG(Encode(*decoded) == frame,
                      "frame must round-trip byte-identically");
  return true;
}

bool ProbeTagged(const std::vector<uint8_t>& frame) {
  std::optional<TaggedPayload> tagged = DecodeTaggedPayload(frame);
  if (!tagged.has_value()) return false;
  MERGEABLE_CHECK_MSG(
      EncodeTaggedPayload(tagged->tag, tagged->payload) == frame,
      "tagged payload must round-trip byte-identically");
  return true;
}

std::vector<std::vector<uint8_t>> TaggedCorpus(uint64_t seed) {
  return {EncodeTaggedPayload(SummaryTag::kMisraGries, {}),
          EncodeTaggedPayload(SummaryTag::kCountMin, CorpusBytes(seed, 48)),
          EncodeTaggedPayload(SummaryTag::kEpsKernel,
                              CorpusBytes(seed ^ 0xabcd, 200))};
}

std::vector<std::vector<uint8_t>> ControlCorpus(uint64_t seed) {
  std::vector<std::vector<uint8_t>> corpus;
  corpus.push_back(EncodeControlFrame({ControlCode::kAccepted, seed, 1, 0}));
  corpus.push_back(
      EncodeControlFrame({ControlCode::kRetryAfter, seed ^ 2, 7, 25}));
  corpus.push_back(
      EncodeControlFrame({ControlCode::kDuplicate, 0, ~seed, 0}));
  corpus.push_back(EncodeControlFrame(
      {ControlCode::kRejected, ~uint64_t{0}, 0, ~uint64_t{0}}));
  return corpus;
}

std::vector<std::vector<uint8_t>> BatchCorpus(uint64_t seed) {
  // Structural edge cases: the zero-report batch, a small mixed batch
  // (including an empty inner payload), and a larger one so truncation
  // and bit-flip sweeps cross many record boundaries.
  WireBatch empty;
  WireBatch small;
  small.reports.push_back({seed, 1, CorpusBytes(seed, 24)});
  small.reports.push_back({seed ^ 5, 1, {}});
  small.reports.push_back({~seed, 2, CorpusBytes(seed * 7 + 3, 90)});
  WireBatch big;
  for (uint64_t i = 0; i < 32; ++i) {
    big.reports.push_back(
        {i, seed % 16, CorpusBytes(seed + i, 8 + (i % 5) * 11)});
  }
  return {EncodeBatchFrame(empty), EncodeBatchFrame(small),
          EncodeBatchFrame(big)};
}

std::vector<std::vector<uint8_t>> BatchVerdictCorpus(uint64_t seed) {
  WireBatchVerdict shed;
  shed.batch_code = ControlCode::kRetryAfter;
  shed.retry_after_ms = seed % 100 + 1;
  WireBatchVerdict rejected;
  rejected.batch_code = ControlCode::kRejected;
  WireBatchVerdict processed;
  processed.codes = {ControlCode::kAccepted, ControlCode::kDuplicate,
                     ControlCode::kRejected, ControlCode::kAccepted,
                     ControlCode::kRetryAfter};
  processed.retry_after_ms = 25;
  return {EncodeBatchVerdictFrame(shed), EncodeBatchVerdictFrame(rejected),
          EncodeBatchVerdictFrame(processed)};
}

std::vector<std::vector<uint8_t>> QueryCorpus(uint64_t seed) {
  return {EncodeQueryFrame({seed, 0, 0, 0, 0}),
          EncodeQueryFrame({1, seed % 64, seed % 64 + 17, 50, 0}),
          EncodeQueryFrame({0, 0, ~uint64_t{0}, ~uint64_t{0}, 0}),
          // Sliding-window addressing: t1/t2 carry no meaning (and may
          // even be inverted); the window selects the range.
          EncodeQueryFrame({2, 0, 0, 30, seed % 100 + 1}),
          EncodeQueryFrame({3, 5, 1, 0, ~uint64_t{0}})};
}

std::vector<std::vector<uint8_t>> AnswerCorpus(uint64_t seed) {
  WireAnswer miss;
  miss.status = AnswerStatus::kUnknownRange;
  WireAnswer full;
  full.stream = seed;
  full.t1 = 3;
  full.t2 = 10;
  full.epochs_covered = 8;
  full.epsilon = 0.01;
  full.epochs = 8;
  full.coverage = 1.0;
  full.n_received = 123456;
  full.received_bound = 1234.56;
  full.full_stream_bound = 1234.56;
  full.payload = EncodeTaggedPayload(SummaryTag::kSpaceSaving,
                                     CorpusBytes(seed, 64));
  WireAnswer partial = full;
  partial.partial = true;
  partial.epochs_covered = 5;
  partial.degraded_epochs = 3;
  partial.coverage = 0.625;
  partial.lost_mass = 4567;
  partial.lost_mass_estimated = true;
  partial.full_stream_bound = partial.received_bound + 4567;
  return {EncodeAnswerFrame(miss), EncodeAnswerFrame(full),
          EncodeAnswerFrame(partial)};
}

std::vector<std::vector<uint8_t>> TopologyCorpus(uint64_t seed) {
  // A bare count change (no migration recipe), a doubling with its
  // split ops, and a halving with join ops — the autoscale arc's three
  // shapes.
  WireTopology bare{seed % 64, 1 + seed % 7, {}};
  WireTopology split;
  split.effective_epoch = seed % 100;
  split.shard_count = 8;
  for (uint64_t i = 0; i < 4; ++i) {
    split.ops.push_back({TopologyOpKind::kSplit, i, i, i + 4});
  }
  WireTopology join;
  join.effective_epoch = seed % 100 + 1;
  join.shard_count = 4;
  for (uint64_t i = 0; i < 4; ++i) {
    join.ops.push_back({TopologyOpKind::kJoin, i, i, i + 4});
  }
  return {EncodeTopologyFrame(bare), EncodeTopologyFrame(split),
          EncodeTopologyFrame(join)};
}

}  // namespace

const std::vector<FrameCodecInfo>& FrameRegistry() {
  static const std::vector<FrameCodecInfo> registry = {
      {"TaggedPayload", &ProbeTagged, &TaggedCorpus},
      {"ControlFrame", &ProbeFrame<DecodeControlFrame, EncodeControlFrame>,
       &ControlCorpus},
      {"QueryFrame", &ProbeFrame<DecodeQueryFrame, EncodeQueryFrame>,
       &QueryCorpus},
      {"AnswerFrame", &ProbeFrame<DecodeAnswerFrame, EncodeAnswerFrame>,
       &AnswerCorpus},
      {"BatchFrame", &ProbeFrame<DecodeBatchFrame, EncodeBatchFrame>,
       &BatchCorpus},
      {"BatchVerdictFrame",
       &ProbeFrame<DecodeBatchVerdictFrame, EncodeBatchVerdictFrame>,
       &BatchVerdictCorpus},
      {"TopologyFrame",
       &ProbeFrame<DecodeTopologyFrame, EncodeTopologyFrame>,
       &TopologyCorpus},
  };
  return registry;
}

}  // namespace mergeable
