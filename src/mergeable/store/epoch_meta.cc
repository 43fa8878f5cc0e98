#include "mergeable/store/epoch_meta.h"

#include "mergeable/aggregate/wire.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"

namespace mergeable {
namespace {

// 'E' 'P' 'H' '1' read as a little-endian u32.
constexpr uint32_t kEpochRecordMagic = 0x31485045;

}  // namespace

EpsilonReport AccumulateEpsilon(const std::vector<EpochMeta>& metas,
                                uint64_t lo, uint64_t hi, double epsilon) {
  MERGEABLE_CHECK_MSG(lo <= hi && hi < metas.size(),
                      "AccumulateEpsilon range out of bounds");
  EpsilonReport report;
  report.epsilon = epsilon;
  report.epochs = hi - lo + 1;
  uint64_t shards_total = 0;
  uint64_t shards_received = 0;
  for (uint64_t i = lo; i <= hi; ++i) {
    const EpochMeta& meta = metas[i];
    report.n_received += meta.n;
    report.lost_mass += meta.lost_mass;
    report.lost_mass_estimated |= meta.lost_mass_estimated;
    if (meta.degraded()) ++report.degraded_epochs;
    shards_total += meta.shards_total;
    shards_received += meta.shards_received;
  }
  report.coverage = shards_total == 0
                        ? 1.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  report.received_bound =
      epsilon * static_cast<double>(report.n_received);
  report.full_stream_bound =
      report.received_bound + static_cast<double>(report.lost_mass);
  return report;
}

EpsilonReport AccumulateEpsilonPartial(const std::vector<EpochMeta>& metas,
                                       uint64_t lo, uint64_t hi,
                                       uint64_t covered_hi, double epsilon) {
  MERGEABLE_CHECK_MSG(lo <= covered_hi && covered_hi <= hi,
                      "covered prefix must lie inside the range");
  EpsilonReport report = AccumulateEpsilon(metas, lo, covered_hi, epsilon);
  if (covered_hi == hi) return report;
  // Re-derive the shard tallies the covered accumulation folded into
  // its coverage ratio, then extend them with the uncovered suffix.
  uint64_t shards_total = 0;
  uint64_t shards_received = 0;
  for (uint64_t i = lo; i <= covered_hi; ++i) {
    shards_total += metas[i].shards_total;
    shards_received += metas[i].shards_received;
  }
  MERGEABLE_CHECK_MSG(hi < metas.size(),
                      "AccumulateEpsilonPartial range out of bounds");
  for (uint64_t i = covered_hi + 1; i <= hi; ++i) {
    const EpochMeta& meta = metas[i];
    ++report.epochs;
    ++report.degraded_epochs;
    // The whole epoch is unobserved by this answer: its aggregated mass
    // and whatever it had already lost both widen the bound.
    report.lost_mass += meta.n + meta.lost_mass;
    report.lost_mass_estimated |= meta.lost_mass_estimated;
    shards_total += meta.shards_total;
    // shards_received += 0: offered, not merged.
  }
  report.coverage = shards_total == 0
                        ? 1.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  report.full_stream_bound =
      report.received_bound + static_cast<double>(report.lost_mass);
  return report;
}

std::vector<uint8_t> EncodeEpochRecord(const EpochMeta& meta,
                                       const std::vector<uint8_t>& payload) {
  // One buffer: the body is written in place behind its length prefix
  // and checksummed there, so the payload is copied once.
  const size_t body_len = 5 * 8 + 4 + 4 + payload.size();
  ByteWriter writer;
  writer.Reserve(4 + 4 + body_len + 8);
  writer.PutU32(kEpochRecordMagic);
  writer.PutU32(static_cast<uint32_t>(body_len));
  writer.PutU64(meta.epoch);
  writer.PutU64(meta.n);
  writer.PutU64(meta.shards_total);
  writer.PutU64(meta.shards_received);
  writer.PutU64(meta.lost_mass);
  writer.PutU32(meta.lost_mass_estimated ? 1 : 0);
  writer.PutBytes(payload);
  writer.PutU64(
      FrameChecksum(meta.epoch, meta.n, writer.bytes().data() + 8, body_len));
  return writer.TakeBytes();
}

std::optional<EpochRecordView> ViewEpochRecord(const uint8_t* bytes,
                                               size_t size) {
  ByteReader reader(bytes, size);
  uint32_t magic = 0;
  if (!reader.GetU32(&magic) || magic != kEpochRecordMagic) {
    return std::nullopt;
  }
  uint32_t body_len = 0;
  if (!reader.GetU32(&body_len) || !reader.Skip(body_len)) {
    return std::nullopt;
  }
  uint64_t checksum = 0;
  if (!reader.GetU64(&checksum) || !reader.Exhausted()) return std::nullopt;

  const uint8_t* body = bytes + 8;
  EpochRecordView record;
  ByteReader body_reader(body, body_len);
  uint32_t estimated = 0;
  uint32_t payload_len = 0;
  if (!body_reader.GetU64(&record.meta.epoch) ||
      !body_reader.GetU64(&record.meta.n) ||
      !body_reader.GetU64(&record.meta.shards_total) ||
      !body_reader.GetU64(&record.meta.shards_received) ||
      !body_reader.GetU64(&record.meta.lost_mass) ||
      !body_reader.GetU32(&estimated) || estimated > 1 ||
      !body_reader.GetU32(&payload_len) ||
      body_reader.remaining() != payload_len) {
    return std::nullopt;
  }
  record.meta.lost_mass_estimated = estimated == 1;
  record.payload = body + (body_len - payload_len);
  record.payload_size = payload_len;
  if (record.meta.shards_received > record.meta.shards_total &&
      record.meta.shards_total != 0) {
    return std::nullopt;
  }
  if (checksum !=
      FrameChecksum(record.meta.epoch, record.meta.n, body, body_len)) {
    return std::nullopt;
  }
  return record;
}

}  // namespace mergeable
