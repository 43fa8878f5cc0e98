// The fault-tolerant aggregation coordinator.
//
// Workers summarize their shards and ship framed reports (wire.h) over a
// transport (transport.h) — the seeded in-process fault injector
// (fault.h) or the real socket path (server/). The coordinator collects
// exactly one report per shard for one epoch, surviving the faults the
// transport injects:
//
//   * malformed frames (truncated / bit-flipped) are rejected by the
//     frame checksum and the summary decoders, then retried;
//   * missing replies are retried with capped exponential backoff until
//     a per-shard deadline;
//   * duplicated and straggler frames are deduplicated by (shard, epoch);
//   * permanently lost shards degrade the answer instead of silently
//     biasing it: the result reports effective coverage
//     n_received / n_total and ErrorAccounting widens the error bound by
//     the unobserved mass.
//
// The coordinator also survives *itself* (DESIGN.md §8): in durable mode
// every accepted report is appended to a write-ahead log (wal.h) before
// it is merged, and the partially merged summary is checkpointed
// periodically (snapshot.h), both through a Storage backend. After a
// crash, Recover() loads the newest valid snapshot, replays the log
// tail idempotently — dedup by (shard, epoch) makes a record whose
// acknowledgement died with the process merge exactly once — truncates
// any torn tail, and ResumeDurable() refetches only the shards that
// were never durably recorded. Durable runs merge left-deep in
// ascending shard order, so a recovered epoch produces a summary
// byte-identical (canonical encodings) to an uninterrupted one.
//
// The merge itself reuses core/merge_driver.h, so the coordinator works
// under any merge topology — the mergeability guarantee (the paper's
// central claim) is exactly what makes partial, reordered, retried,
// replayed aggregation sound: whatever subset of shards arrives, in
// whatever order they are merged, the result is a valid summary of the
// union of the received shards with the same epsilon.

#ifndef MERGEABLE_AGGREGATE_COORDINATOR_H_
#define MERGEABLE_AGGREGATE_COORDINATOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/snapshot.h"
#include "mergeable/aggregate/transport.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wal.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/concepts.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

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
    kLost,      // All attempts exhausted or deadline passed.
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
  uint64_t incompatible_rejected = 0;  // Decoded but failed validation.
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

// Execution knobs for in-memory runs. num_threads > 1 parallelizes
// Run(): shard fetch/decode fans out over a ThreadPool (the transport
// exchange itself is serialized under a mutex; frame decode, summary
// decode and validation run concurrently), and a kBalancedTree topology
// merges via ParallelMergeAll. The result is byte-identical to the
// sequential run for every thread count: per-shard transport state and
// (seed, shard, attempt)-keyed fault decisions make fetch outcomes
// independent of scheduling, accepted summaries are collected in shard
// order, and the parallel balanced reduction is deterministic by
// construction (see merge_driver.h). Durable runs ignore num_threads —
// their left-deep ascending merge order is what makes recovery
// byte-exact, so it stays canonical and sequential.
struct CoordinatorOptions {
  int num_threads = 1;
};

// Knobs for durable (WAL + checkpoint) runs.
struct DurableOptions {
  // Storage file name of the write-ahead log.
  std::string wal_file = "wal";
  // Write a snapshot checkpoint after every this many accepted reports
  // (0 = log only, never checkpoint; recovery then replays the whole
  // log, which is still exact, just slower).
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
  // True when durable state for this epoch was found (an epoch-begin
  // record or a snapshot). False means the crash predated the first
  // durable write: nothing was lost, start the epoch from scratch.
  bool recovered = false;
  uint64_t epoch = 0;
  uint64_t n_shards = 0;
  bool used_snapshot = false;
  uint64_t snapshot_seq = 0;      // Sequence of the snapshot used.
  uint64_t wal_records_total = 0; // Intact records found in the log.
  uint64_t wal_records_applied = 0;  // Records replayed past the snapshot.
  uint64_t duplicates_ignored = 0;   // Replay idempotence in action.
  uint64_t invalid_payloads = 0;     // Checksummed-but-undecodable reports
                                     // dropped (a writer bug, not a crash).
  bool torn_tail_truncated = false;  // A partial final record was cut off.
  // Shards neither received nor given up in the durable state — exactly
  // the fetch work ResumeDurable() still has to do.
  std::vector<uint64_t> pending_shards;
};

// Collects one epoch of reports for summary type S.
template <WireSummary S>
class Coordinator {
 public:
  // `validate` (optional) accepts a decoded summary before it is merged;
  // use it to enforce fleet-wide configuration (capacity, seeds) so a
  // stray incompatible report cannot abort the merge.
  Coordinator(uint64_t epoch, BackoffPolicy policy, MergeTopology topology,
              uint64_t seed = 0, CoordinatorOptions options = {})
      : epoch_(epoch), policy_(policy), topology_(topology), rng_(seed),
        coordinator_options_(options) {
    MERGEABLE_CHECK_MSG(options.num_threads >= 1,
                        "CoordinatorOptions::num_threads must be >= 1");
  }

  void set_validator(bool (*validate)(const S&)) { validate_ = validate; }

  uint64_t epoch() const { return epoch_; }

  // Cumulative WAL-append retry traffic (transient storage failures
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
  // retries, dedup and degraded-coverage accounting. In-memory only: a
  // coordinator crash loses the epoch (use RunDurable to survive that).
  AggregationResult<S> Run(Transport& transport, size_t n_shards) {
    ResetEpochState();
    if (coordinator_options_.num_threads > 1 && n_shards > 1) {
      return RunParallel(transport, n_shards);
    }
    AggregationResult<S> result;
    result.shards_total = n_shards;
    result.outcomes.reserve(n_shards);
    std::vector<S> accepted;
    accepted.reserve(n_shards);
    for (uint64_t shard = 0; shard < n_shards; ++shard) {
      std::optional<FetchedReport> fetched;
      ShardOutcome outcome = FetchShard(transport, shard, &fetched);
      AbsorbOutcome(outcome, &result);
      if (fetched.has_value()) accepted.push_back(std::move(fetched->summary));
      result.outcomes.push_back(std::move(outcome));
    }
    result.shards_received = accepted.size();
    result.incompatible_rejected = incompatible_;
    if (!accepted.empty()) {
      result.summary = MergeAll(std::move(accepted), topology_, &rng_);
    }
    return result;
  }

  // Durable variant of Run: every accepted report is WAL-appended before
  // it is merged and the partial merge is checkpointed every
  // `options.checkpoint_every` reports, all through `storage`. If a
  // storage write fails mid-epoch the result comes back with
  // `crashed == true`; a fresh coordinator can then Recover() from the
  // same storage and ResumeDurable() the epoch.
  //
  // Durable runs merge left-deep in ascending shard order regardless of
  // the constructor's topology — a deterministic order is what makes the
  // recovered result byte-identical to an uninterrupted one (and by the
  // paper's merge-tree independence, the error bound does not care).
  AggregationResult<S> RunDurable(Transport& transport,
                                  size_t n_shards, Storage* storage,
                                  DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    return DurableLoop(transport, n_shards);
  }

  // Rebuilds durable state from `storage` after a crash: restores the
  // newest valid snapshot, replays the WAL tail past it (idempotently),
  // and truncates a torn final record. The coordinator must be
  // constructed for the same epoch the durable state belongs to;
  // records of other epochs are ignored.
  RecoveryInfo Recover(Storage* storage, DurableOptions options = {}) {
    ResetEpochState();
    AttachStorage(storage, std::move(options));
    RecoveryInfo info;
    info.epoch = epoch_;

    const SnapshotScan scan = LoadLatestSnapshot(*storage);
    snapshot_seq_ = scan.max_seq_seen;
    uint64_t covered = 0;
    if (scan.found && scan.snapshot.epoch == epoch_) {
      epoch_begun_ = true;
      durable_n_shards_ = scan.snapshot.n_shards;
      received_.insert(scan.snapshot.received_shards.begin(),
                       scan.snapshot.received_shards.end());
      lost_.insert(scan.snapshot.lost_shards.begin(),
                   scan.snapshot.lost_shards.end());
      if (!scan.snapshot.summary_payload.empty()) {
        ByteReader reader(scan.snapshot.summary_payload);
        std::optional<S> summary = S::DecodeFrom(reader);
        // The snapshot checksum already vouched for these bytes; a
        // decode failure here is a snapshot-writer bug.
        MERGEABLE_CHECK_MSG(summary.has_value() && reader.Exhausted(),
                            "checksummed snapshot payload must decode");
        merged_ = std::move(*summary);
      }
      covered = scan.snapshot.wal_records;
      info.used_snapshot = true;
      info.snapshot_seq = scan.seq;
    }

    const WalReplay replay = ReplayWal(*storage, options_.wal_file);
    info.wal_records_total = replay.records.size();
    uint64_t index = 0;
    for (const WalRecord& record : replay.records) {
      if (index++ < covered) continue;  // The snapshot already holds it.
      if (record.epoch != epoch_) continue;
      ++info.wal_records_applied;
      switch (record.type) {
        case WalRecordType::kEpochBegin:
          epoch_begun_ = true;
          durable_n_shards_ = record.shard_id;
          break;
        case WalRecordType::kReport: {
          if (received_.count(record.shard_id) != 0) {
            // The record was made durable twice (e.g. an append whose
            // acknowledgement died); dedup by (shard, epoch) merges it
            // exactly once.
            ++info.duplicates_ignored;
            break;
          }
          ByteReader reader(record.payload);
          std::optional<S> summary = S::DecodeFrom(reader);
          if (!summary.has_value() || !reader.Exhausted()) {
            ++info.invalid_payloads;
            break;
          }
          ApplyReport(record.shard_id, std::move(*summary));
          break;
        }
        case WalRecordType::kShardLost:
          if (received_.count(record.shard_id) == 0) {
            lost_.insert(record.shard_id);
          }
          break;
      }
    }
    wal_records_ = replay.records.size();
    if (replay.torn_tail) {
      // The tail bytes never formed a durable record; cut them so new
      // appends start at a clean boundary.
      storage->Truncate(options_.wal_file, replay.valid_bytes);
      info.torn_tail_truncated = true;
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
  AggregationResult<S> ResumeDurable(Transport& transport,
                                     size_t n_shards) {
    MERGEABLE_CHECK_MSG(storage_ != nullptr,
                        "ResumeDurable requires Recover() first");
    return DurableLoop(transport, n_shards);
  }

 private:
  // A fetched, validated report: the decoded summary plus the canonical
  // payload bytes it decoded from (what the WAL persists).
  struct FetchedReport {
    S summary;
    std::vector<uint8_t> payload;
  };

  // The parallel in-memory epoch (num_threads > 1). Fetch outcomes land
  // in per-shard slots and are absorbed in ascending shard order, so
  // every aggregate (retry counts, accepted vector, merge input order)
  // matches the sequential loop exactly.
  AggregationResult<S> RunParallel(Transport& transport,
                                   size_t n_shards) {
    AggregationResult<S> result;
    result.shards_total = n_shards;
    result.outcomes.reserve(n_shards);
    ThreadPool pool(coordinator_options_.num_threads);
    std::mutex transport_mutex;
    std::vector<std::optional<FetchedReport>> fetched(n_shards);
    std::vector<ShardOutcome> outcomes(n_shards);
    pool.ParallelFor(n_shards, [&](size_t shard) {
      outcomes[shard] = FetchShard(transport, static_cast<uint64_t>(shard),
                                   &fetched[shard], &transport_mutex);
    });
    std::vector<S> accepted;
    accepted.reserve(n_shards);
    for (size_t shard = 0; shard < n_shards; ++shard) {
      AbsorbOutcome(outcomes[shard], &result);
      if (fetched[shard].has_value()) {
        accepted.push_back(std::move(fetched[shard]->summary));
      }
      result.outcomes.push_back(std::move(outcomes[shard]));
    }
    result.shards_received = accepted.size();
    result.incompatible_rejected = incompatible_;
    if (!accepted.empty()) {
      if (topology_ == MergeTopology::kBalancedTree) {
        result.summary = ParallelMergeAll(std::move(accepted), pool);
      } else {
        // Chain and random trees have no scheduling-independent parallel
        // form; the fetch fan-out above already did the parallel work.
        result.summary = MergeAll(std::move(accepted), topology_, &rng_);
      }
    }
    return result;
  }

  void ResetEpochState() {
    incompatible_ = 0;
    merged_.reset();
    received_.clear();
    lost_.clear();
    epoch_begun_ = false;
    durable_n_shards_ = 0;
    wal_records_ = 0;
    snapshot_seq_ = 0;
    storage_ = nullptr;
    wal_.reset();
  }

  void AttachStorage(Storage* storage, DurableOptions options) {
    MERGEABLE_CHECK_MSG(storage != nullptr, "durable mode needs storage");
    storage_ = storage;
    options_ = std::move(options);
    wal_.emplace(storage_, options_.wal_file);
  }

  // Merges an accepted report into the durable state. The merged
  // summary is kept *canonical* — the fixed point of encode∘decode —
  // by Canonicalize() after every merge. This is what makes recovery
  // byte-exact for randomized summaries: codecs like MergeableQuantiles
  // do not serialize their RNG state (the decoder re-seeds
  // deterministically from content), so an in-memory state that never
  // canonicalized would draw different halving offsets than its
  // snapshot-restored image and diverge from it on the next merge.
  // Canonical form makes the in-memory state indistinguishable from the
  // recovered one at every step, for any crash point.
  void ApplyReport(uint64_t shard, S summary) {
    if (merged_.has_value()) {
      merged_->Merge(summary);
      merged_->Canonicalize();
    } else {
      // Freshly decoded from payload bytes — already canonical.
      merged_ = std::move(summary);
    }
    received_.insert(shard);
  }

  void AbsorbOutcome(const ShardOutcome& outcome,
                     AggregationResult<S>* result) {
    result->retries += outcome.attempts > 0 ? outcome.attempts - 1 : 0;
    result->duplicates_rejected += outcome.duplicates;
    result->malformed_rejected += outcome.malformed;
    result->elapsed_ms = std::max(result->elapsed_ms, outcome.elapsed_ms);
  }

  bool WriteCheckpoint() {
    Snapshot snapshot;
    snapshot.epoch = epoch_;
    snapshot.n_shards = durable_n_shards_;
    snapshot.wal_records = wal_records_;
    snapshot.received_shards.assign(received_.begin(), received_.end());
    snapshot.lost_shards.assign(lost_.begin(), lost_.end());
    if (merged_.has_value()) {
      ByteWriter writer;
      merged_->EncodeTo(writer);
      snapshot.summary_payload = writer.TakeBytes();
    }
    return WriteSnapshotFile(storage_, ++snapshot_seq_, snapshot);
  }

  // Appends `record` and keeps the durable-record cursor in sync.
  // Transient append failures are retried under options_.append_retry:
  // a record only counts as lost once the bounded schedule is
  // exhausted, so one flaky write no longer aborts the whole epoch.
  bool WalAppend(WalRecord record) {
    const BackoffPolicy& retry = options_.append_retry;
    const uint32_t attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        ++wal_append_retries_;
        wal_append_backoff_ms_ += retry.BackoffBefore(attempt);
      }
      if (wal_->Append(record)) {
        ++wal_records_;
        return true;
      }
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

  // The fetch/log/merge/checkpoint loop shared by RunDurable and
  // ResumeDurable. Shards already durably received or lost are skipped;
  // everything else is fetched, WAL-logged *before* merging, and merged
  // left-deep in ascending shard order.
  AggregationResult<S> DurableLoop(Transport& transport,
                                   size_t n_shards) {
    AggregationResult<S> result;
    result.shards_total = n_shards;
    result.outcomes.reserve(n_shards);
    if (!epoch_begun_) {
      WalRecord begin;
      begin.type = WalRecordType::kEpochBegin;
      begin.shard_id = n_shards;
      begin.epoch = epoch_;
      if (!WalAppend(std::move(begin))) {
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
      std::optional<FetchedReport> fetched;
      ShardOutcome outcome = FetchShard(transport, shard, &fetched);
      AbsorbOutcome(outcome, &result);
      result.outcomes.push_back(outcome);
      if (fetched.has_value()) {
        WalRecord record;
        record.type = WalRecordType::kReport;
        record.shard_id = shard;
        record.epoch = epoch_;
        record.payload = std::move(fetched->payload);
        // Write-ahead: the report must be durable before it can affect
        // the merged state, or a crash between the two would lose it.
        if (!WalAppend(std::move(record))) {
          MarkCrashed(&result);
          return result;
        }
        ApplyReport(shard, std::move(fetched->summary));
        if (options_.checkpoint_every > 0 &&
            received_.size() % options_.checkpoint_every == 0) {
          if (!WriteCheckpoint()) {
            MarkCrashed(&result);
            return result;
          }
        }
      } else {
        WalRecord record;
        record.type = WalRecordType::kShardLost;
        record.shard_id = shard;
        record.epoch = epoch_;
        if (!WalAppend(std::move(record))) {
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

  // Runs the retry loop for one shard. On success `fetched` holds the
  // decoded summary and its canonical payload bytes. `transport_mutex`
  // (parallel runs) serializes the transport exchange only — decode and
  // validation stay outside the lock. Per-shard transport state plus
  // (seed, shard, attempt)-keyed fault decisions make the exchange
  // results independent of the serialization order.
  ShardOutcome FetchShard(Transport& transport, uint64_t shard,
                          std::optional<FetchedReport>* fetched,
                          std::mutex* transport_mutex = nullptr) {
    ShardOutcome outcome;
    outcome.shard_id = shard;
    bool incompatible = false;
    for (uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
      const uint64_t backoff = policy_.BackoffBefore(attempt);
      if (outcome.elapsed_ms + backoff > policy_.deadline_ms) break;
      outcome.elapsed_ms += backoff;
      ++outcome.attempts;
      DeliveryAttempt delivery;
      if (transport_mutex != nullptr) {
        std::lock_guard<std::mutex> lock(*transport_mutex);
        delivery = transport.Deliver(shard, attempt);
      } else {
        delivery = transport.Deliver(shard, attempt);
      }
      outcome.elapsed_ms +=
          std::min(delivery.latency_ms, policy_.attempt_timeout_ms);
      for (std::vector<uint8_t>& frame : delivery.frames) {
        switch (Accept(frame, shard, fetched)) {
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
      if (fetched->has_value()) {
        outcome.status = ShardOutcome::Status::kReceived;
        break;
      }
      // An intact, decodable report that fails validation is a
      // configuration error on the worker, not a transient network fault:
      // retrying would fetch the same incompatible report again. Give the
      // shard up immediately.
      if (incompatible) break;
    }
    return outcome;
  }

  enum class FrameResult { kAccepted, kDuplicate, kMalformed, kIncompatible };

  FrameResult Accept(const std::vector<uint8_t>& frame, uint64_t shard,
                     std::optional<FetchedReport>* fetched) {
    std::optional<WireReport> report = DecodeReportFrame(frame);
    if (!report.has_value()) return FrameResult::kMalformed;
    // A frame for another shard or epoch is a routing error, not a valid
    // report; stragglers from past epochs land here too.
    if (report->shard_id != shard || report->epoch != epoch_) {
      return FrameResult::kMalformed;
    }
    if (fetched->has_value()) return FrameResult::kDuplicate;
    ByteReader payload(report->payload);
    std::optional<S> summary = S::DecodeFrom(payload);
    if (!summary.has_value() || !payload.Exhausted()) {
      return FrameResult::kMalformed;
    }
    if (validate_ != nullptr && !validate_(*summary)) {
      ++incompatible_;
      return FrameResult::kIncompatible;
    }
    fetched->emplace(
        FetchedReport{std::move(*summary), std::move(report->payload)});
    return FrameResult::kAccepted;
  }

  uint64_t epoch_;
  BackoffPolicy policy_;
  MergeTopology topology_;
  Rng rng_;
  CoordinatorOptions coordinator_options_;
  bool (*validate_)(const S&) = nullptr;
  // Atomic: Accept() runs concurrently across shards in parallel runs.
  std::atomic<uint64_t> incompatible_{0};

  // Durable-mode state (see DESIGN.md §8). received_ / lost_ double as
  // the per-epoch dedup and outcome sets; std::set keeps them in shard
  // order, which is also the canonical snapshot encoding order.
  Storage* storage_ = nullptr;
  DurableOptions options_;
  std::optional<WalWriter> wal_;
  std::optional<S> merged_;
  std::set<uint64_t> received_;
  std::set<uint64_t> lost_;
  bool epoch_begun_ = false;
  uint64_t durable_n_shards_ = 0;
  uint64_t wal_records_ = 0;   // Durable records: replayed + appended.
  uint64_t snapshot_seq_ = 0;  // Last sequence written or seen.
  uint64_t wal_append_retries_ = 0;
  uint64_t wal_append_backoff_ms_ = 0;  // Virtual backoff accumulated.
};

// Worker-side convenience: encodes `summary` into a framed report for
// (shard_id, epoch).
template <WireSummary S>
std::vector<uint8_t> MakeReportFrame(const S& summary, uint64_t shard_id,
                                     uint64_t epoch) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  WireReport report;
  report.shard_id = shard_id;
  report.epoch = epoch;
  report.payload = writer.TakeBytes();
  return EncodeReportFrame(report);
}

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_COORDINATOR_H_
