// The fault-tolerant aggregation coordinator.
//
// Workers summarize their shards and ship framed reports (wire.h) over a
// transport (transport.h) — the seeded in-process fault injector
// (fault.h) or the real socket path (server/). The coordinator collects
// exactly one report per shard for one epoch, surviving the faults the
// transport injects:
//
//   * malformed frames (truncated / bit-flipped) are rejected by the
//     frame checksum and the payload validation, then retried;
//   * missing replies are retried with capped exponential backoff until
//     a per-shard deadline;
//   * duplicated and straggler frames are deduplicated by (shard, epoch);
//   * a valid report the fold cannot merge (a Count-Min of another
//     width) is given up as incompatible, without a retry;
//   * permanently lost shards degrade the answer instead of silently
//     biasing it: the result reports effective coverage
//     n_received / n_total and ErrorAccounting widens the error bound by
//     the unobserved mass.
//
// Run and RunDurable are one fetch/validate/fold loop: a report is
// validated in place (ValidPayload<S>), shape-checked against the fold
// so far (PayloadMergeableInto) and folded from its bytes through
// FoldPayloadInto, left-deep in ascending shard order — the fold of the
// ingest service's seal and the store, so the bytes match theirs.
// Mergeability (the paper's central claim) makes whatever subset of
// shards arrives a valid summary of its union with the same epsilon.
//
// The coordinator also survives *itself* (DESIGN.md §8): RunDurable
// appends one record per state transition to a single log file through
// a Storage backend, before the transition is applied (Run attaches no
// storage and writes nothing). The records are SEG1
// frames (store/segment.h, the durable store's format) keyed (stream =
// epoch, level = LogRecordKind, index): the epoch opening, each accepted
// report, each shard given up as lost, and every few reports a
// checkpoint of the partial fold. After a crash, Recover() reads the log
// once, cuts it at the first torn, corrupt or unknown record, restores
// this epoch's newest checkpoint and replays the records past it
// idempotently — dedup by (shard, epoch) makes a record whose
// acknowledgement died with the process merge exactly once — and
// ResumeDurable() refetches only the shards that were never durably
// recorded. A fixed fold order makes a recovered epoch's summary
// byte-identical (canonical encodings) to an uninterrupted one.

#ifndef MERGEABLE_AGGREGATE_COORDINATOR_H_
#define MERGEABLE_AGGREGATE_COORDINATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/transport.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/concepts.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"

namespace mergeable {

// Retry schedule: capped exponential backoff under a per-shard deadline.
// `multiplier` must be positive (BackoffBefore aborts otherwise); the
// backoff value saturates at max_backoff_ms, so huge attempt counts or
// multipliers can never overflow the schedule.
struct BackoffPolicy {
  uint32_t max_attempts = 4;
  uint64_t initial_backoff_ms = 10;
  double multiplier = 2.0;
  uint64_t max_backoff_ms = 1000;
  // An exchange that takes longer than this counts as timed out.
  uint64_t attempt_timeout_ms = 100;
  // No attempt starts after this much virtual time has elapsed for the
  // shard (retrying forever would stall the whole epoch).
  uint64_t deadline_ms = 5000;

  // Backoff inserted before `attempt` (zero before the first try).
  uint64_t BackoffBefore(uint32_t attempt) const;
};

// Per-shard aggregation outcome.
struct ShardOutcome {
  enum class Status {
    kReceived,  // A valid report was accepted.
    kLost,      // All attempts exhausted, deadline passed, or the
                // report was incompatible.
  };
  uint64_t shard_id = 0;
  Status status = Status::kLost;
  uint32_t attempts = 0;        // Exchanges performed (0: recovered from
                                // durable state, no fetch needed).
  uint64_t malformed = 0;       // Frames rejected (checksum / decode).
  uint64_t duplicates = 0;      // Frames deduplicated by (shard, epoch).
  uint64_t elapsed_ms = 0;      // Virtual time spent on this shard.
};

// Degraded-coverage error accounting (see DESIGN.md §7). For a summary
// family guaranteeing error <= epsilon * n after arbitrary merging:
//   * against the received shards the merged summary keeps the native
//     bound epsilon * n_received — mergeability holds for any subset;
//   * against the full (partly unobserved) stream every lost shard may
//     hide up to its whole weight, so the bound widens additively by the
//     lost mass (exact when the caller knows the intended total, else
//     estimated from the mean received shard weight).
struct ErrorAccounting {
  double coverage = 1.0;          // shards_received / shards_total.
  uint64_t n_received = 0;        // Mass actually aggregated.
  uint64_t lost_mass = 0;         // Known or estimated unobserved mass.
  bool lost_mass_estimated = false;
  double received_bound = 0.0;    // epsilon * n_received.
  double full_stream_bound = 0.0; // received_bound + lost_mass.
};

// Everything the coordinator learned in one epoch.
template <WireSummary S>
struct AggregationResult {
  // Merge of every accepted report; nullopt when nothing arrived (or
  // the run crashed).
  std::optional<S> summary;
  // True when a durable run died on a storage write before finishing
  // the epoch: the partial state is on storage, not in this result —
  // construct a fresh coordinator and Recover().
  bool crashed = false;
  size_t shards_total = 0;
  size_t shards_received = 0;
  uint64_t retries = 0;             // Exchanges beyond each first attempt.
  uint64_t duplicates_rejected = 0;
  uint64_t malformed_rejected = 0;
  uint64_t incompatible_rejected = 0;  // Shards given up: a valid report
                                       // the fold cannot merge.
  uint64_t elapsed_ms = 0;          // Max over shards (parallel fetches).
  std::vector<ShardOutcome> outcomes;

  size_t shards_lost() const { return shards_total - shards_received; }
  double Coverage() const {
    return shards_total == 0
               ? 0.0
               : static_cast<double>(shards_received) /
                     static_cast<double>(shards_total);
  }
  bool Degraded() const { return shards_received < shards_total; }
};

// Computes the degraded-coverage accounting for a result whose summary
// guarantees error <= epsilon * n. `expected_total_n` is the intended
// full-stream mass if the caller knows it (0 = unknown, estimate it).
ErrorAccounting AccountErrors(double epsilon, size_t shards_total,
                              size_t shards_received, uint64_t n_received,
                              uint64_t expected_total_n);

template <WireSummary S>
ErrorAccounting AccountErrors(const AggregationResult<S>& result,
                              double epsilon,
                              uint64_t expected_total_n = 0) {
  return AccountErrors(epsilon, result.shards_total, result.shards_received,
                       result.summary.has_value() ? result.summary->n() : 0,
                       expected_total_n);
}

// Knobs for durable (log + checkpoint) runs.
struct DurableOptions {
  // Storage file name of the log; the only file a durable run writes.
  std::string wal_file = "wal";
  // Append a checkpoint record after every this many accepted reports
  // (0 = never checkpoint; recovery then replays the whole log, which is
  // still exact, just slower).
  uint64_t checkpoint_every = 8;
  // Retry schedule for transient Storage::Append failures (a disk-full
  // window that clears, a flaky EIO). max_attempts bounds the tries per
  // record; the backoff values are virtual time, accumulated in
  // wal_append_backoff_ms(). A *crashed* storage stays failed for the
  // whole process lifetime and consumes no write indices while down, so
  // retrying cannot shift the crash matrix: recovery stays byte-exact.
  BackoffPolicy append_retry{.max_attempts = 3,
                             .initial_backoff_ms = 1,
                             .multiplier = 2.0,
                             .max_backoff_ms = 16};
};

// What Recover() reconstructed from storage.
struct RecoveryInfo {
  // True when durable state for this epoch was found (its epoch-begin
  // record). False means the crash predated the first durable write:
  // nothing was lost, start the epoch from scratch.
  bool recovered = false;
  uint64_t epoch = 0;
  uint64_t n_shards = 0;
  bool used_snapshot = false;     // A checkpoint record was restored.
  uint64_t snapshot_seq = 0;      // Its sequence (1 = the epoch's first).
  uint64_t wal_records_total = 0; // Records in the log's usable prefix,
                                  // every epoch and kind counted.
  uint64_t wal_records_applied = 0;  // This epoch's records replayed past
                                     // the checkpoint (checkpoints aside).
  uint64_t duplicates_ignored = 0;   // Replay idempotence in action.
  uint64_t invalid_payloads = 0;     // Checksummed records dropped: an
                                     // undecodable checkpoint or report,
                                     // or a report the fold cannot merge
                                     // (a writer bug, not a crash).
  // A torn or corrupt tail was cut off. False with bytes left past the
  // usable prefix means the truncate failed: ResumeDurable() then
  // refuses to append behind them.
  bool torn_tail_truncated = false;
  // Shards neither received nor given up in the durable state — exactly
  // the fetch work ResumeDurable() still has to do.
  std::vector<uint64_t> pending_shards;
};

// The durable coordinator's log records: SEG1 frames (store/segment.h)
// with stream = epoch, level = kind and the index below.
enum class LogRecordKind : uint32_t {
  kEpochBegin = 1,  // index = shard count; no payload.
  kReport = 2,      // index = shard; payload = canonical summary bytes.
  kShardLost = 3,   // index = shard; no payload.
  kCheckpoint = 4,  // index = checkpoint sequence within the epoch (from
                    // 1); payload = EncodeCheckpoint.
};

// A checkpoint's payload: the durable outcome sets, plus the canonical
// encoding of the merge of received_shards' reports in ascending shard
// order (empty when nothing has been merged). The checkpoint's position
// in the log is its replay cursor: recovery replays only what follows.
struct Checkpoint {
  std::vector<uint64_t> received_shards;  // Strictly ascending.
  std::vector<uint64_t> lost_shards;      // Strictly ascending.
  std::vector<uint8_t> summary_payload;
};

std::vector<uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint);

// std::nullopt on truncation, trailing bytes, or shard sets that are not
// strictly ascending. The bytes come from storage, so this never aborts.
std::optional<Checkpoint> DecodeCheckpoint(const uint8_t* bytes,
                                           size_t size);

// The usable prefix of a coordinator log.
struct CoordinatorLog {
  // Every record of the prefix, in append order, as views into the
  // scanned buffer.
  std::vector<SegmentRecordView> records;
  // The prefix ends at the first record that is torn, fails its
  // checksum, or has an unknown kind: whatever follows it was never
  // durably acknowledged in order, so replaying past it could fold
  // reports out of ascending shard order.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;  // Bytes past valid_bytes exist: cut them.
};

// Walks `bytes` (a whole log file) with WalkSegment.
CoordinatorLog ScanCoordinatorLog(const std::vector<uint8_t>& bytes);

// Collects one epoch of reports for summary type S.
template <WireSummary S>
class Coordinator {
 public:
  Coordinator(uint64_t epoch, BackoffPolicy policy)
      : epoch_(epoch), policy_(policy) {}

  uint64_t epoch() const { return epoch_; }

  // Cumulative log-append retry traffic (transient storage failures
  // ridden out under DurableOptions::append_retry).
  uint64_t wal_append_retries() const { return wal_append_retries_; }
  uint64_t wal_append_backoff_ms() const { return wal_append_backoff_ms_; }

  // Moves the coordinator to a new epoch, resetting every per-epoch
  // state: dedup/outcome sets, the partial merge, rejection counters,
  // and any attached durable storage. Reusing one coordinator across
  // epochs without this reset would let stale state leak into the next
  // round, so the epoch must actually change.
  void AdvanceEpoch(uint64_t new_epoch) {
    MERGEABLE_CHECK_MSG(new_epoch != epoch_,
                        "AdvanceEpoch requires a different epoch");
    epoch_ = new_epoch;
    ResetEpochState();
  }

  // Fetches the reports of shards [0, n_shards) from `transport`, with
  // retries, dedup, shape checks and degraded-coverage accounting, and
  // folds them left-deep in ascending shard order. In memory only: a
  // coordinator crash loses the epoch (RunDurable survives that).
  AggregationResult<S> Run(Transport& transport, size_t n_shards) {
    ResetEpochState();
    return RunLoop(transport, n_shards);
  }

  // Run with a log: every accepted report is logged before it is folded
  // and the partial fold is checkpointed every `options.checkpoint_every`
  // reports, all through `storage`. If a storage write fails mid-epoch
  // the result comes back with `crashed == true`; a fresh coordinator
  // can then Recover() from the same storage and ResumeDurable() the
  // epoch.
  AggregationResult<S> RunDurable(Transport& transport,
                                  size_t n_shards, Storage* storage,
                                  DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    return RunLoop(transport, n_shards);
  }

  // Rebuilds durable state from `storage` after a crash: reads the log
  // once, cuts it at the end of its usable prefix, restores this epoch's
  // newest checkpoint in the prefix and replays this epoch's records
  // past it (idempotently). The coordinator must be constructed for the
  // same epoch the durable state belongs to; records of other epochs
  // are skipped.
  RecoveryInfo Recover(Storage* storage, DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    RecoveryInfo info;
    info.epoch = epoch_;

    const std::vector<uint8_t> bytes =
        storage->Read(options_.wal_file).value_or(std::vector<uint8_t>());
    const CoordinatorLog log = ScanCoordinatorLog(bytes);
    info.wal_records_total = log.records.size();
    // The replay cursor: just past the newest checkpoint that restores.
    size_t cursor = 0;
    for (size_t i = log.records.size(); i-- > 0;) {
      const SegmentRecordView& record = log.records[i];
      const auto kind = static_cast<LogRecordKind>(record.level);
      if (record.stream != epoch_ || kind != LogRecordKind::kCheckpoint) {
        continue;
      }
      checkpoint_seq_ = std::max(checkpoint_seq_, record.index);
      if (RestoreCheckpoint(bytes.data() + record.payload_offset,
                            record.payload_length)) {
        info.used_snapshot = true;
        info.snapshot_seq = record.index;
        cursor = i + 1;
        break;
      }
      ++info.invalid_payloads;
    }
    for (size_t i = 0; i < log.records.size(); ++i) {
      const SegmentRecordView& record = log.records[i];
      const auto kind = static_cast<LogRecordKind>(record.level);
      if (record.stream != epoch_) continue;
      if (kind == LogRecordKind::kEpochBegin) {
        // Read even behind the cursor: checkpoints do not repeat it.
        epoch_begun_ = true;
        durable_n_shards_ = record.index;
      }
      if (i < cursor || kind == LogRecordKind::kCheckpoint) continue;
      ++info.wal_records_applied;
      if (kind == LogRecordKind::kReport) {
        if (received_.count(record.index) != 0) {
          // The record was made durable twice (e.g. an append whose
          // acknowledgement died); dedup by (shard, epoch) merges it
          // exactly once.
          ++info.duplicates_ignored;
          continue;
        }
        const uint8_t* payload = bytes.data() + record.payload_offset;
        if (!ValidPayload<S>(payload, record.payload_length) ||
            !Mergeable(payload, record.payload_length)) {
          ++info.invalid_payloads;
          continue;
        }
        ApplyReport(record.index, payload, record.payload_length);
      } else if (kind == LogRecordKind::kShardLost &&
                 received_.count(record.index) == 0) {
        lost_.insert(record.index);
      }
    }
    if (log.torn_tail) {
      // The tail bytes never formed a durable record; cut them so new
      // appends start at a clean boundary. Appending behind an uncut
      // tail would hide those records from the next Recover().
      info.torn_tail_truncated =
          storage->Truncate(options_.wal_file, log.valid_bytes);
      tail_uncut_ = !info.torn_tail_truncated;
    }

    info.recovered = epoch_begun_;
    info.n_shards = durable_n_shards_;
    if (epoch_begun_) {
      for (uint64_t shard = 0; shard < durable_n_shards_; ++shard) {
        if (received_.count(shard) == 0 && lost_.count(shard) == 0) {
          info.pending_shards.push_back(shard);
        }
      }
    }
    return info;
  }

  // Finishes the epoch after Recover(): refetches only the shards not
  // yet durably recorded and keeps logging/checkpointing. `n_shards`
  // must match the epoch's durable shard count when one was recovered
  // (it seeds the epoch when the crash predated the first write).
  // Returns `crashed` without writing when Recover() could not cut a
  // torn tail.
  AggregationResult<S> ResumeDurable(Transport& transport,
                                     size_t n_shards) {
    MERGEABLE_CHECK_MSG(storage_ != nullptr,
                        "ResumeDurable requires Recover() first");
    if (tail_uncut_) {
      AggregationResult<S> result;
      result.shards_total = n_shards;
      MarkCrashed(&result);
      return result;
    }
    return RunLoop(transport, n_shards);
  }

 private:
  void ResetEpochState() {
    incompatible_ = 0;
    received_.clear();
    lost_.clear();
    epoch_begun_ = false;
    durable_n_shards_ = 0;
    checkpoint_seq_ = 0;
    tail_uncut_ = false;
    storage_ = nullptr;
    // Last: with the reset first, GCC 12's -O2 inliner misdiagnoses
    // resetting a fresh coordinator's empty fold as a read of
    // uninitialized summary bytes (-Wmaybe-uninitialized).
    merged_.reset();
  }

  void AttachStorage(Storage* storage, DurableOptions options) {
    MERGEABLE_CHECK_MSG(storage != nullptr, "durable mode needs storage");
    storage_ = storage;
    options_ = std::move(options);
  }

  // Loads a checkpoint into the freshly reset durable state; false
  // (state untouched) when its body or summary does not decode.
  bool RestoreCheckpoint(const uint8_t* payload, size_t size) {
    std::optional<Checkpoint> checkpoint = DecodeCheckpoint(payload, size);
    if (!checkpoint.has_value()) return false;
    std::optional<S> summary;
    if (!checkpoint->summary_payload.empty()) {
      ByteReader reader(checkpoint->summary_payload);
      summary = S::DecodeFrom(reader);
      if (!summary.has_value() || !reader.Exhausted()) return false;
    }
    merged_ = std::move(summary);
    received_.insert(checkpoint->received_shards.begin(),
                     checkpoint->received_shards.end());
    lost_.insert(checkpoint->lost_shards.begin(),
                 checkpoint->lost_shards.end());
    return true;
  }

  // Folds an accepted report's payload bytes into the epoch's state
  // through the canonical fold (FoldPayloadInto, store/summary_store.h),
  // the one the ingest service's seal uses. The merged summary is kept
  // *canonical* — the fixed point of encode∘decode — by Canonicalize()
  // after every merge. This is what makes recovery byte-exact for
  // randomized summaries: codecs like MergeableQuantiles do not
  // serialize their RNG state (the decoder re-seeds deterministically
  // from content), so an in-memory state that never canonicalized would
  // draw different halving offsets than its checkpoint-restored image
  // and diverge from it on the next merge. Canonical form makes the
  // in-memory state indistinguishable from the recovered one at every
  // step, for any crash point.
  void ApplyReport(uint64_t shard, const uint8_t* payload, size_t size) {
    FoldPayloadInto(merged_, payload, size);
    received_.insert(shard);
  }

  // Whether a valid payload's shape merges into the fold so far (any
  // shape starts an empty fold).
  bool Mergeable(const uint8_t* payload, size_t size) const {
    return !merged_.has_value() ||
           PayloadMergeableInto(*merged_, payload, size);
  }

  void AbsorbOutcome(const ShardOutcome& outcome,
                     AggregationResult<S>* result) {
    result->retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
    result->duplicates_rejected += outcome.duplicates;
    result->malformed_rejected += outcome.malformed;
    result->elapsed_ms = std::max(result->elapsed_ms, outcome.elapsed_ms);
  }

  bool WriteCheckpoint() {
    Checkpoint checkpoint;
    checkpoint.received_shards.assign(received_.begin(), received_.end());
    checkpoint.lost_shards.assign(lost_.begin(), lost_.end());
    if (merged_.has_value()) {
      ByteWriter writer;
      merged_->EncodeTo(writer);
      checkpoint.summary_payload = writer.TakeBytes();
    }
    // Numbered before the append: a failed append crashes the run, and
    // Recover() renumbers from what the log holds.
    return LogAppend(LogRecordKind::kCheckpoint, ++checkpoint_seq_,
                     EncodeCheckpoint(checkpoint));
  }

  // Appends one log record; true without writing when no storage is
  // attached (Run). Transient append failures are retried under
  // options_.append_retry: a record only counts as lost once the bounded
  // schedule is exhausted, so one flaky write does not abort the epoch.
  bool LogAppend(LogRecordKind kind, uint64_t index,
                 const std::vector<uint8_t>& payload = {}) {
    if (storage_ == nullptr) return true;
    const std::vector<uint8_t> frame =
        EncodeSegmentFrame(epoch_, static_cast<uint32_t>(kind), index,
                           payload.data(), payload.size());
    const BackoffPolicy& retry = options_.append_retry;
    const uint32_t attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        ++wal_append_retries_;
        wal_append_backoff_ms_ += retry.BackoffBefore(attempt);
      }
      if (storage_->Append(options_.wal_file, frame)) return true;
    }
    return false;
  }

  // Marks `result` as crashed in place (no move of the result object:
  // GCC 12 misdiagnoses moving a disengaged optional member as a read
  // of uninitialized payload bytes under heavy inlining).
  void MarkCrashed(AggregationResult<S>* result) {
    result->crashed = true;
    result->summary.reset();
    result->shards_received = received_.size();
  }

  // The fetch/log/fold/checkpoint loop behind Run, RunDurable and
  // ResumeDurable. Shards already durably received or lost are skipped;
  // everything else is fetched, logged *before* it is folded, and folded
  // left-deep in ascending shard order. With no storage attached nothing
  // is logged or checkpointed.
  AggregationResult<S> RunLoop(Transport& transport, size_t n_shards) {
    AggregationResult<S> result;
    result.shards_total = n_shards;
    result.outcomes.reserve(n_shards);
    if (!epoch_begun_) {
      if (!LogAppend(LogRecordKind::kEpochBegin, n_shards)) {
        MarkCrashed(&result);
        return result;
      }
      epoch_begun_ = true;
      durable_n_shards_ = n_shards;
    }
    MERGEABLE_CHECK_MSG(durable_n_shards_ == n_shards,
                        "shard count does not match the durable epoch");

    for (uint64_t shard = 0; shard < n_shards; ++shard) {
      if (received_.count(shard) != 0 || lost_.count(shard) != 0) {
        // Durably recorded before this process started — not refetched;
        // that is the whole point of the log.
        ShardOutcome outcome;
        outcome.shard_id = shard;
        outcome.status = received_.count(shard) != 0
                             ? ShardOutcome::Status::kReceived
                             : ShardOutcome::Status::kLost;
        result.outcomes.push_back(outcome);
        continue;
      }
      std::optional<std::vector<uint8_t>> payload;
      ShardOutcome outcome = FetchShard(transport, shard, &payload);
      AbsorbOutcome(outcome, &result);
      result.outcomes.push_back(outcome);
      if (payload.has_value()) {
        // Write-ahead: the report must be durable before it can affect
        // the merged state, or a crash between the two would lose it.
        if (!LogAppend(LogRecordKind::kReport, shard, *payload)) {
          MarkCrashed(&result);
          return result;
        }
        ApplyReport(shard, payload->data(), payload->size());
        if (storage_ != nullptr && options_.checkpoint_every > 0 &&
            received_.size() % options_.checkpoint_every == 0) {
          if (!WriteCheckpoint()) {
            MarkCrashed(&result);
            return result;
          }
        }
      } else {
        if (!LogAppend(LogRecordKind::kShardLost, shard)) {
          MarkCrashed(&result);
          return result;
        }
        lost_.insert(shard);
      }
    }

    result.shards_received = received_.size();
    result.incompatible_rejected = incompatible_;
    if (merged_.has_value()) result.summary = std::move(merged_);
    return result;
  }

  // Runs the retry loop for one shard. On success `payload` holds the
  // report's validated, mergeable payload bytes.
  ShardOutcome FetchShard(Transport& transport, uint64_t shard,
                          std::optional<std::vector<uint8_t>>* payload) {
    ShardOutcome outcome;
    outcome.shard_id = shard;
    bool incompatible = false;
    for (uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
      const uint64_t backoff = policy_.BackoffBefore(attempt);
      if (outcome.elapsed_ms + backoff > policy_.deadline_ms) break;
      outcome.elapsed_ms += backoff;
      ++outcome.attempts;
      DeliveryAttempt delivery = transport.Deliver(shard, attempt);
      outcome.elapsed_ms +=
          std::min(delivery.latency_ms, policy_.attempt_timeout_ms);
      for (std::vector<uint8_t>& frame : delivery.frames) {
        switch (Accept(frame, shard, payload)) {
          case FrameResult::kAccepted:
            break;
          case FrameResult::kDuplicate:
            ++outcome.duplicates;
            break;
          case FrameResult::kMalformed:
            ++outcome.malformed;
            break;
          case FrameResult::kIncompatible:
            incompatible = true;
            break;
        }
      }
      if (payload->has_value()) {
        outcome.status = ShardOutcome::Status::kReceived;
        break;
      }
      // A valid report the fold cannot merge is a configuration error on
      // the worker, not a transient network fault: retrying would fetch
      // the same report again. Give the shard up immediately.
      if (incompatible) {
        ++incompatible_;
        break;
      }
    }
    return outcome;
  }

  enum class FrameResult { kAccepted, kDuplicate, kMalformed, kIncompatible };

  // A report frame is a BAT1 holding exactly one record (wire.h); any
  // other record count is malformed, like a checksum failure.
  FrameResult Accept(const std::vector<uint8_t>& frame, uint64_t shard,
                     std::optional<std::vector<uint8_t>>* payload) const {
    std::vector<BatchRecordView> records;
    if (!ViewBatchFrame(frame, &records) || records.size() != 1) {
      return FrameResult::kMalformed;
    }
    const BatchRecordView& report = records.front();
    // A frame for another shard or epoch is a routing error, not a valid
    // report; stragglers from past epochs land here too.
    if (report.shard_id != shard || report.epoch != epoch_) {
      return FrameResult::kMalformed;
    }
    if (payload->has_value()) return FrameResult::kDuplicate;
    if (!ValidPayload<S>(report.payload, report.payload_len)) {
      return FrameResult::kMalformed;
    }
    if (!Mergeable(report.payload, report.payload_len)) {
      return FrameResult::kIncompatible;
    }
    payload->emplace(report.payload, report.payload + report.payload_len);
    return FrameResult::kAccepted;
  }

  uint64_t epoch_;
  BackoffPolicy policy_;
  uint64_t incompatible_ = 0;

  // Durable-mode state (see DESIGN.md §8). received_ / lost_ double as
  // the per-epoch dedup and outcome sets; std::set keeps them in shard
  // order, which is also the canonical checkpoint encoding order.
  Storage* storage_ = nullptr;
  DurableOptions options_;
  std::optional<S> merged_;
  std::set<uint64_t> received_;
  std::set<uint64_t> lost_;
  bool epoch_begun_ = false;
  uint64_t durable_n_shards_ = 0;
  uint64_t checkpoint_seq_ = 0;  // Last sequence written or seen.
  bool tail_uncut_ = false;      // Recover() could not cut a torn tail.
  uint64_t wal_append_retries_ = 0;
  uint64_t wal_append_backoff_ms_ = 0;  // Virtual backoff accumulated.
};

// Worker-side convenience: encodes `summary` into a report frame — a
// one-record BAT1 — for (shard_id, epoch).
template <WireSummary S>
std::vector<uint8_t> MakeReportFrame(const S& summary, uint64_t shard_id,
                                     uint64_t epoch) {
  return EncodeBatchFrame({{{shard_id, epoch, EncodeSummary(summary)}}});
}

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_COORDINATOR_H_
