#include "mergeable/aggregate/coordinator.h"

#include <cmath>

#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"

namespace mergeable {
namespace {

void PutShardSet(ByteWriter& writer, const std::vector<uint64_t>& shards) {
  writer.PutU32(static_cast<uint32_t>(shards.size()));
  for (uint64_t shard : shards) writer.PutU64(shard);
}

// Reads a shard set, validating the declared count against the input
// that is actually present before allocating, and requiring strictly
// ascending ids (canonical form; also rejects duplicates).
bool GetShardSet(ByteReader& reader, std::vector<uint64_t>* shards) {
  uint32_t count = 0;
  if (!reader.GetU32(&count)) return false;
  if (reader.remaining() < static_cast<size_t>(count) * sizeof(uint64_t)) {
    return false;
  }
  shards->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t shard = 0;
    if (!reader.GetU64(&shard)) return false;
    if (!shards->empty() && shard <= shards->back()) return false;
    shards->push_back(shard);
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint) {
  ByteWriter writer;
  PutShardSet(writer, checkpoint.received_shards);
  PutShardSet(writer, checkpoint.lost_shards);
  writer.PutBytes(checkpoint.summary_payload);
  return writer.TakeBytes();
}

std::optional<Checkpoint> DecodeCheckpoint(const uint8_t* bytes,
                                           size_t size) {
  ByteReader reader(bytes, size);
  Checkpoint checkpoint;
  if (!GetShardSet(reader, &checkpoint.received_shards) ||
      !GetShardSet(reader, &checkpoint.lost_shards) ||
      !reader.GetBytes(&checkpoint.summary_payload) || !reader.Exhausted()) {
    return std::nullopt;
  }
  return checkpoint;
}

CoordinatorLog ScanCoordinatorLog(const std::vector<uint8_t>& bytes) {
  CoordinatorLog log;
  bool ended = false;
  WalkSegment(bytes.data(), bytes.size(), [&](const SegmentRecordView& view) {
    ended = ended || !view.intact ||
            view.level < static_cast<uint32_t>(LogRecordKind::kEpochBegin) ||
            view.level > static_cast<uint32_t>(LogRecordKind::kCheckpoint);
    if (ended) return;
    log.records.push_back(view);
    log.valid_bytes = view.offset + view.length;
  });
  log.torn_tail = log.valid_bytes < bytes.size();
  return log;
}

uint64_t BackoffPolicy::BackoffBefore(uint32_t attempt) const {
  // A non-positive (or NaN) multiplier is a configuration bug: the
  // schedule would go negative or oscillate, and the uint64_t cast below
  // would be undefined behavior.
  MERGEABLE_CHECK_MSG(multiplier > 0.0, "multiplier must be positive");
  if (attempt == 0 || initial_backoff_ms == 0) return 0;
  // Closed form instead of repeated multiplication: pow saturates at
  // +inf instead of wrapping, and min() clamps to the cap before the
  // integer cast, so initial_backoff_ms * multiplier^k can never
  // overflow uint64_t no matter how large attempt or multiplier get.
  const double backoff = static_cast<double>(initial_backoff_ms) *
                         std::pow(multiplier, static_cast<double>(attempt - 1));
  const double cap = static_cast<double>(max_backoff_ms);
  // !(backoff < cap) also catches +inf; returning the cap directly keeps
  // the uint64_t cast in range even when max_backoff_ms itself does not
  // round-trip through double.
  if (!(backoff < cap)) return max_backoff_ms;
  return static_cast<uint64_t>(backoff);
}

ErrorAccounting AccountErrors(double epsilon, size_t shards_total,
                              size_t shards_received, uint64_t n_received,
                              uint64_t expected_total_n) {
  ErrorAccounting accounting;
  accounting.coverage =
      shards_total == 0 ? 0.0
                        : static_cast<double>(shards_received) /
                              static_cast<double>(shards_total);
  accounting.n_received = n_received;
  accounting.received_bound = epsilon * static_cast<double>(n_received);
  const size_t lost = shards_total - shards_received;
  if (expected_total_n > 0) {
    accounting.lost_mass = expected_total_n > n_received
                               ? expected_total_n - n_received
                               : 0;
  } else if (lost > 0 && shards_received > 0) {
    // Uniform-shard estimate: lost shards carry the mean received weight.
    const uint64_t mean_shard =
        (n_received + shards_received - 1) / shards_received;
    accounting.lost_mass = static_cast<uint64_t>(lost) * mean_shard;
    accounting.lost_mass_estimated = true;
  }
  accounting.full_stream_bound =
      accounting.received_bound + static_cast<double>(accounting.lost_mass);
  return accounting;
}

}  // namespace mergeable
