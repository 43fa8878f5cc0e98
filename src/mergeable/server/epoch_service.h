// EpochService<S>: the summary-typed brain behind the ingest server.
//
// The server core (ingest_server.h) moves frames; this class gives them
// meaning. It plays the coordinator's role on the receiving side of the
// wire: each open epoch is one EpochAccumulator (epoch_accumulator.h),
// which admits one report per shard, answers a retry of an admitted
// shard with kDuplicate, and on SealEpoch() folds the epoch's reports
// into one summary for the DurableStore — in ascending shard order,
// left-deep, the exact merge the durable coordinator performs, so a
// server-built epoch is byte-identical to a Coordinator-built one over
// the same reports (the server equivalence test asserts it).
//
// Reports arrive in one frame type, BAT1 (wire.h) — a single report is
// a one-record batch — and every record takes one admission step
// (AdmitLocked): payloads are validated in place before taking the
// mutex, then each record runs the verdict chain — misrouted or
// already-sealed epoch, storage degraded, invalid payload or one of a
// shape the epoch cannot merge (a Count-Min of another width, say),
// already-admitted shard, accepted — and only the accepted payloads are
// copied out of the frame. No report is decoded: it stays bytes until
// its epoch seals. A retry for a sealed epoch is rejected by the epoch
// check before dedup is consulted, so dedup memory never outlives the
// open epochs.
//
// Epsilon accounting closes the loop on load shedding: SealEpoch takes
// the offered mass (what the shards sent, shed or not) and charges
// everything that did not arrive as lost mass via AccountErrors — the
// same arithmetic the aggregation pipeline uses for network loss, now
// applied to the server's own admission decisions. A shed report is a
// lost shard; the range query's degraded-coverage report says exactly
// that (criterion b).
//
// Queries run through the store's deadline-bounded path: a deadline the
// cover cannot afford yields a partial answer with a widened bound, not
// a stalled connection. A window query ("the last w epochs") resolves
// to its absolute range (store/query.h ResolveWindow) and takes the
// same path; the store's seal-time write-through keeps the newest nodes
// it folds in the node cache.
//
// StoreT is the DurableStore<S> the service seals into and queries, or
// a wrapper forwarding the calls it makes: SealResult,
// QueryRangePayloadBounded, HasStream, BaseEpoch and EpochCount.
//
// Disk pressure: when a seal fails because the durable backend rejected
// the append (ENOSPC, EIO), the service enters a degraded mode —
// queries keep serving from what is already durable, new reports are
// shed through the admission path's retry-after NACK (the client's
// backoff policy already honors it), and the failed seal is buffered for
// in-order retry on the next seal tick.
// Every byte of shed mass shows up as lost mass when its epoch finally
// seals: offered_n counts what the shards tried to send, and a shed
// report simply never arrives. When the bounded retry buffer overflows,
// the overflowing epochs keep their slot but drop their payload (sealed
// as an empty summary whose whole offered mass is lost) so the epoch
// axis stays contiguous under arbitrarily long outages at O(1) memory
// per epoch. The empty-summary factory also repairs a long-standing
// wedge: an epoch that received no reports at all can now seal a
// zero-coverage placeholder instead of permanently blocking the store's
// contiguous epoch axis.
//
// Thread safety: HandleBatch/HandleQuery/HandleTopology run on server
// worker threads; a single mutex serializes them with SealEpoch (the
// store's own contract requires sealing serialized with queries
// anyway). HandleBatch validates payloads before taking the mutex and
// applies the whole batch under one acquisition — the lock amortizes
// with batch size.

#ifndef MERGEABLE_SERVER_EPOCH_SERVICE_H_
#define MERGEABLE_SERVER_EPOCH_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/epoch_accumulator.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/query.h"
#include "mergeable/util/bytes.h"

namespace mergeable {

struct EpochServiceConfig {
  uint64_t stream = 1;
  // Shards expected per epoch before any topology change; reports from
  // shard ids >= the epoch's count are rejected, and coverage
  // accounting uses it as the denominator. TOP1 announcements
  // (HandleTopology) override it per epoch from their effective epoch
  // on.
  uint64_t shards_per_epoch = 4;
  // No longer has any effect: dedup is each open epoch's shard index,
  // freed when the epoch seals. Kept declared only because perfbench
  // still sets it; it goes with the next perfbench change.
  size_t dedup_capacity = 1024;
  // Virtual per-node merge cost charged against a query's deadline
  // budget; 0 disables deadline enforcement (tests crank it up to force
  // partial answers deterministically).
  uint64_t query_cost_per_node_ms = 0;
  // Retry-after hint NACKed to reporters while the durable backend is
  // failing writes (storage-degraded mode).
  uint64_t storage_retry_after_ms = 50;
  // Failed seals buffered with their full payload for in-order retry;
  // beyond this, buffered epochs degrade to empty placeholders (their
  // mass is accounted as lost, to the byte).
  size_t max_buffered_seals = 16;
  // No longer has any effect: window queries are served on the store
  // path. Kept declared only because perfbench still sets it; it goes
  // with the next perfbench change.
  uint64_t window_capacity = 0;
};

struct EpochServiceStats {
  uint64_t reports_accepted = 0;
  uint64_t reports_duplicate = 0;
  uint64_t reports_rejected = 0;  // Bad payload / misrouted shard or epoch.
  uint64_t reports_shed_storage = 0;  // Retry-after NACKs while degraded.
  uint64_t batches_handled = 0;    // Well-formed BAT1 frames processed.
  uint64_t batches_malformed = 0;  // BAT1 frames that failed to decode.
  uint64_t queries_answered = 0;
  uint64_t queries_partial = 0;
  uint64_t queries_refused = 0;  // Unknown stream / unsealed range.
  uint64_t queries_window = 0;  // Window-addressed queries resolved.
  // ... of those, answered without a storage read (no node-cache miss).
  // The name predates the store-path window; perfbench reads it.
  uint64_t queries_window_ring = 0;
  uint64_t storage_seal_failures = 0;  // Seal attempts the backend refused.
  uint64_t storage_recoveries = 0;     // Degraded -> healthy transitions.
  uint64_t epochs_sealed_empty = 0;    // Zero-report placeholder seals.
  uint64_t seals_degraded_to_empty = 0;  // Buffer-overflow payload drops.
  uint64_t topology_accepted = 0;   // TOP1 announcements applied.
  uint64_t topology_rejected = 0;   // Malformed or already-sealed epoch.
  // Already-admitted reports dropped because a topology change put
  // their shard id out of range for their epoch.
  uint64_t reports_dropped_topology = 0;
};

template <WireSummary S, typename StoreT = DurableStore<S>>
class EpochService : public FrameHandler {
 public:
  EpochService(StoreT* store, EpochServiceConfig config)
      : store_(store), config_(config) {
    MERGEABLE_CHECK_MSG(store != nullptr, "EpochService needs a store");
    MERGEABLE_CHECK_MSG(config.shards_per_epoch >= 1,
                        "EpochService needs at least one shard");
    // Warm restart: when the store already holds sealed epochs (a
    // DurableStore reopened from disk), resume the epoch axis where it
    // left off instead of rejecting the store's own history.
    if (store->HasStream(config_.stream)) {
      next_epoch_ = store->BaseEpoch(config_.stream) +
                    store->EpochCount(config_.stream);
    }
  }

  // Installs the maker of empty (zero-mass) summaries used for
  // placeholder seals: zero-report epochs and buffer-overflow
  // degradation. Without one, a zero-report epoch is skipped (the
  // pre-durability behavior) and overflowing buffered seals keep their
  // payloads in memory. The factory's summary also sets the shape
  // reference: from then on a report of another shape is rejected at
  // admission.
  void set_empty_summary_factory(std::function<S()> factory) {
    std::lock_guard<std::mutex> lock(mu_);
    empty_summary_ = std::move(factory);
    if constexpr (ChecksPayloadShape<S>) {
      if (empty_summary_) shape_ = empty_summary_().shape();
    }
  }

  // The report path, for one record or many. Outside the service
  // mutex, every record's payload is validated in place
  // (ValidPayload<S>). The whole batch is then admitted under one lock
  // acquisition, so a 256-report batch costs one lock round instead of
  // 256; after the verdicts, each epoch that admitted reports copies
  // their payloads, and only theirs, out of the frame (see
  // epoch_accumulator.h). Verdicts come back per record, in record
  // order; a duplicate batch replayed after a lost verdict answers
  // kDuplicate on every record and counts nothing twice (each record
  // takes the one admission step).
  std::vector<uint8_t> HandleBatch(
      const std::vector<uint8_t>& frame) override {
    // Zero-copy view: every payload is validated straight out of the
    // frame, without materializing per-record vectors.
    std::vector<BatchRecordView> records;
    WireBatchVerdict verdict;
    if (!ViewBatchFrame(frame, &records)) {
      verdict.batch_code = ControlCode::kRejected;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches_malformed;
      return EncodeBatchVerdictFrame(verdict);
    }
    std::vector<bool> valid(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      valid[i] = ValidPayload<S>(records[i].payload, records[i].payload_len);
    }
    verdict.codes.reserve(records.size());

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches_handled;
    for (size_t i = 0; i < records.size(); ++i) {
      const ControlCode code = AdmitLocked(
          records[i].epoch, records[i].shard_id,
          valid[i] ? records[i].payload : nullptr, records[i].payload_len);
      if (code == ControlCode::kRetryAfter) {
        verdict.retry_after_ms = config_.storage_retry_after_ms;
      }
      verdict.codes.push_back(code);
    }
    for (EpochAccumulator<S>* admitted : admitted_) admitted->Keep();
    admitted_.clear();
    return EncodeBatchVerdictFrame(verdict);
  }

  std::vector<uint8_t> HandleQuery(
      const std::vector<uint8_t>& frame) override {
    std::optional<WireQuery> query = DecodeQueryFrame(frame);
    WireAnswer answer;
    if (!query.has_value()) {
      answer.status = AnswerStatus::kUnknownRange;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.queries_refused;
      return EncodeAnswerFrame(answer);
    }
    answer.stream = query->stream;
    answer.t1 = query->t1;
    answer.t2 = query->t2;

    std::lock_guard<std::mutex> lock(mu_);
    if (query->window > 0) {
      // Sliding-window addressing: "the last w epochs" of the sealed
      // history (clamped when shorter), answered as that range; the
      // answer echoes the resolved range.
      const std::optional<std::pair<uint64_t, uint64_t>> range =
          query->stream == config_.stream
              ? ResolveWindow(*store_, query->stream, query->window)
              : std::nullopt;
      if (!range.has_value()) {
        answer.status = AnswerStatus::kUnknownRange;
        ++stats_.queries_refused;
        return EncodeAnswerFrame(answer);
      }
      query->t1 = answer.t1 = range->first;
      query->t2 = answer.t2 = range->second;
      ++stats_.queries_window;
    }
    QueryDeadline deadline;
    if (query->deadline_ms != 0) deadline.budget_ms = query->deadline_ms;
    deadline.cost_per_node_ms = config_.query_cost_per_node_ms;
    std::optional<typename StoreT::RangeOutcome> outcome =
        query->stream == config_.stream
            ? store_->QueryRangePayloadBounded(query->stream, query->t1,
                                               query->t2, deadline)
            : std::nullopt;
    if (!outcome.has_value()) {
      answer.status = AnswerStatus::kUnknownRange;
      ++stats_.queries_refused;
      return EncodeAnswerFrame(answer);
    }
    answer.status = AnswerStatus::kOk;
    answer.partial = outcome->partial;
    answer.epochs_covered = outcome->covered_hi - query->t1 + 1;
    FillEpsilon(&answer, outcome->eps);
    answer.payload = EncodeTaggedPayload(SummaryTraits<S>::kTag,
                                         *outcome->payload);
    ++stats_.queries_answered;
    if (outcome->partial) ++stats_.queries_partial;
    if (query->window > 0 && outcome->stats.node_cache_misses == 0) {
      ++stats_.queries_window_ring;
    }
    return EncodeAnswerFrame(answer);
  }

  // A TOP1 shard-topology announcement: from `effective_epoch` on, the
  // stream reports with `shard_count` shards (the per-epoch coverage
  // denominator changes with it). Accepted for any epoch not yet sealed
  // — including the one currently collecting reports, which is the
  // mid-epoch case: already-admitted reports whose shard id falls out
  // of range under the new count are dropped (counted in
  // reports_dropped_topology), everything else stands. Rejected when
  // the effective epoch is already sealed: its coverage is settled and
  // cannot be re-denominated.
  std::vector<uint8_t> HandleTopology(
      const std::vector<uint8_t>& frame) override {
    std::optional<WireTopology> topology = DecodeTopologyFrame(frame);
    WireControl control;
    if (!topology.has_value()) {
      control.code = ControlCode::kRejected;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.topology_rejected;
      return EncodeControlFrame(control);
    }
    // The ACK echoes the announcement's identity: the new count rides
    // in shard_id, the effective epoch in epoch.
    control.shard_id = topology->shard_count;
    control.epoch = topology->effective_epoch;

    std::lock_guard<std::mutex> lock(mu_);
    if (topology->effective_epoch < next_epoch_) {
      control.code = ControlCode::kRejected;
      ++stats_.topology_rejected;
      return EncodeControlFrame(control);
    }
    topology_.insert_or_assign(topology->effective_epoch,
                               topology->shard_count);
    // Drop admitted reports the new topology orphans. Later epochs may
    // sit under a *different* (later) announcement, so the bound is
    // recomputed per epoch, not taken from this frame.
    for (auto it = pending_.lower_bound(topology->effective_epoch);
         it != pending_.end(); ++it) {
      stats_.reports_dropped_topology +=
          it->second.DropShardsFrom(ShardsForEpochLocked(it->first));
    }
    control.code = ControlCode::kAccepted;
    ++stats_.topology_accepted;
    return EncodeControlFrame(control);
  }

  // Seals `epoch` into the store from whatever reports arrived: the
  // canonical fold (FoldPayloadInto) in ascending shard order —
  // byte-identical to Coordinator's Run and RunDurable over the same
  // payloads.
  // `offered_n` is the total mass the shards tried to send (what the
  // chaos harness knows it offered); everything that did not arrive —
  // shed, dropped, never sent — becomes lost mass.
  //
  // A storage-refused seal is buffered (in epoch order) and retried at
  // the head of the next SealEpoch call; while any seal is buffered the
  // service is storage-degraded and sheds reports with retry-after.
  // Returns true when everything through `epoch` is durably sealed;
  // false when this epoch is skipped (zero reports, no empty-summary
  // factory) or still buffered behind a failing disk.
  bool SealEpoch(uint64_t epoch, uint64_t offered_n) {
    std::lock_guard<std::mutex> lock(mu_);
    MERGEABLE_CHECK_MSG(epoch >= next_epoch_,
                        "epochs must be sealed in order");
    auto it = pending_.find(epoch);
    AggregationResult<S> result;
    result.shards_total = ShardsForEpochLocked(epoch);
    if (it != pending_.end()) {
      result = std::move(it->second).Seal(result.shards_total);
    }
    // Epochs at or below the seal point can never be admitted again
    // (AdmitLocked rejects them), so their pending state — dedup
    // included — is dead.
    pending_.erase(pending_.begin(), pending_.upper_bound(epoch));
    next_epoch_ = epoch + 1;
    GcTopologyLocked();
    if (!result.summary.has_value()) {
      // Zero reports. Skipping keeps pre-durability behavior, but once
      // the store holds epochs (or earlier seals are queued) a gap
      // would wedge the contiguous epoch axis — seal a placeholder.
      const bool gap_matters =
          !buffered_seals_.empty() || store_->HasStream(config_.stream);
      if (!empty_summary_ || !gap_matters) return false;
      result.summary = CanonicalForm(empty_summary_());
      ++stats_.epochs_sealed_empty;
    }
    buffered_seals_.push_back(
        BufferedSeal{epoch, std::move(result), offered_n});
    TrimBufferLocked();
    const bool drained = DrainBufferLocked();
    if (drained && storage_degraded_) {
      storage_degraded_ = false;
      ++stats_.storage_recoveries;
    } else if (!drained) {
      storage_degraded_ = true;
    }
    return drained;
  }

  uint64_t next_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_epoch_;
  }
  size_t pending_reports() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [epoch, pending] : pending_) n += pending.size();
    return n;
  }
  // Payload bytes the open epochs hold for their admitted reports.
  size_t pending_payload_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t bytes = 0;
    for (const auto& [epoch, pending] : pending_) {
      bytes += pending.payload_bytes();
    }
    return bytes;
  }
  EpochServiceStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  bool storage_degraded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return storage_degraded_;
  }
  // Shards `epoch` expects (the coverage denominator it will seal
  // with) — for drivers asserting both sides of an autoscale arc agree.
  uint64_t shards_for_epoch(uint64_t epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    return ShardsForEpochLocked(epoch);
  }
  size_t buffered_seals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return buffered_seals_.size();
  }

 private:
  struct BufferedSeal {
    uint64_t epoch = 0;
    AggregationResult<S> result;
    uint64_t offered_n = 0;
  };

  // The one admission step of every report record: its verdict, with
  // its counter bumped. `payload` is the record's payload in the frame,
  // or nullptr when it failed validation; an accepted one is added to
  // its epoch's accumulator, which is listed in admitted_ to keep it.
  ControlCode AdmitLocked(uint64_t epoch, uint64_t shard,
                          const uint8_t* payload, size_t size) {
    const uint64_t shards = ShardsForEpochLocked(epoch);
    if (epoch < next_epoch_ || shard >= shards) {
      // Misrouted shard, or a straggler for an epoch already sealed —
      // resending cannot help either one.
      ++stats_.reports_rejected;
      return ControlCode::kRejected;
    }
    if (storage_degraded_) {
      // Disk pressure: shed before dedup so the client's retry (post-
      // backoff) is not misclassified as a duplicate. The shard keeps
      // the report; its mass is only lost if the epoch seals before the
      // disk recovers — and then it is counted lost.
      ++stats_.reports_shed_storage;
      return ControlCode::kRetryAfter;
    }
    if (payload == nullptr || !MatchesShapeLocked(payload, size)) {
      // Validated before dedup: a corrupt payload, or one whose shape
      // the epoch's other summaries cannot merge with, acked now would
      // abort the seal later; and a rejected payload must not take its
      // shard's slot, or the corrected retry would be misread as a
      // duplicate.
      ++stats_.reports_rejected;
      return ControlCode::kRejected;
    }
    EpochAccumulator<S>& pending =
        pending_.try_emplace(epoch, shards).first->second;
    if (!pending.Add(shard, payload, size)) {
      ++stats_.reports_duplicate;
      return ControlCode::kDuplicate;
    }
    if (admitted_.empty() || admitted_.back() != &pending) {
      admitted_.push_back(&pending);
    }
    if constexpr (ChecksPayloadShape<S>) {
      // Without a factory or a sealed epoch, the first admitted report
      // sets the shape every later one must have.
      if (!shape_.has_value()) shape_ = S::EncodedShape(payload, size);
    }
    ++stats_.reports_accepted;
    return ControlCode::kAccepted;
  }

  // Whether a valid payload has the shape reference's shape: always,
  // for types whose Merge takes any payload, and while no reference is
  // known. The first check without one looks for the newest sealed
  // epoch's.
  bool MatchesShapeLocked(const uint8_t* payload, size_t size) {
    if constexpr (ChecksPayloadShape<S>) {
      if (!shape_.has_value()) shape_ = NewestSealedShapeLocked();
      return !shape_.has_value() ||
             *shape_ == S::EncodedShape(payload, size);
    } else {
      return true;
    }
  }

  // The shape of the stream's newest sealed epoch, when the store holds
  // the stream (a restart, or history sealed by another writer) and
  // that epoch reads back.
  std::optional<typename PayloadShape<S>::type> NewestSealedShapeLocked() {
    if (!store_->HasStream(config_.stream)) return std::nullopt;
    const uint64_t newest = store_->BaseEpoch(config_.stream) +
                            store_->EpochCount(config_.stream) - 1;
    const std::optional<typename StoreT::RangeOutcome> sealed =
        store_->QueryRangePayloadBounded(config_.stream, newest, newest,
                                         QueryDeadline{});
    if (!sealed.has_value() || sealed->partial ||
        !ValidPayload<S>(sealed->payload->data(), sealed->payload->size())) {
      return std::nullopt;
    }
    return S::EncodedShape(sealed->payload->data(), sealed->payload->size());
  }

  // Beyond the buffer cap, drop payloads (oldest kept intact — they
  // seal first) down to empty placeholders: the epoch keeps its slot on
  // the axis, its whole offered mass becomes lost mass, and memory per
  // outage epoch is O(1).
  void TrimBufferLocked() {
    if (!empty_summary_) return;
    for (size_t i = config_.max_buffered_seals; i < buffered_seals_.size();
         ++i) {
      BufferedSeal& seal = buffered_seals_[i];
      if (seal.result.shards_received == 0) continue;  // Already empty.
      seal.result.summary = CanonicalForm(empty_summary_());
      seal.result.shards_received = 0;
      ++stats_.seals_degraded_to_empty;
    }
  }

  // Seals buffered epochs in order; stops at the first storage refusal
  // so the store's contiguity is preserved. True when the buffer drains.
  bool DrainBufferLocked() {
    while (!buffered_seals_.empty()) {
      BufferedSeal& seal = buffered_seals_.front();
      if (!store_->SealResult(config_.stream, seal.epoch, seal.result,
                              seal.offered_n)) {
        ++stats_.storage_seal_failures;
        return false;
      }
      buffered_seals_.pop_front();
    }
    return true;
  }

  // Shard count in force for `epoch`: the latest topology change at or
  // before it, or the configured base when none applies.
  uint64_t ShardsForEpochLocked(uint64_t epoch) const {
    auto it = topology_.upper_bound(epoch);
    if (it == topology_.begin()) return config_.shards_per_epoch;
    return std::prev(it)->second;
  }

  // Topology entries for sealed epochs are dead *except* the latest one
  // at or before the seal point — it is the in-force baseline every
  // future epoch inherits until the next change.
  void GcTopologyLocked() {
    auto it = topology_.upper_bound(next_epoch_);
    if (it == topology_.begin()) return;
    topology_.erase(topology_.begin(), std::prev(it));
  }

  static void FillEpsilon(WireAnswer* answer, const EpsilonReport& eps) {
    answer->epsilon = eps.epsilon;
    answer->epochs = eps.epochs;
    answer->degraded_epochs = eps.degraded_epochs;
    answer->coverage = eps.coverage;
    answer->n_received = eps.n_received;
    answer->lost_mass = eps.lost_mass;
    answer->lost_mass_estimated = eps.lost_mass_estimated;
    answer->received_bound = eps.received_bound;
    answer->full_stream_bound = eps.full_stream_bound;
  }

  StoreT* store_;
  EpochServiceConfig config_;

  mutable std::mutex mu_;
  // Open epochs, ascending (a handful: the ones between the seal point
  // and the newest report).
  std::map<uint64_t, EpochAccumulator<S>> pending_;
  // effective_epoch -> shard count, from accepted TOP1 announcements.
  // Ordered: ShardsForEpochLocked takes the latest entry <= the epoch.
  std::map<uint64_t, uint64_t> topology_;
  uint64_t next_epoch_ = 0;
  EpochServiceStats stats_;
  std::function<S()> empty_summary_;
  // The shape every admitted report must have, for types that check
  // one (ChecksPayloadShape): the empty-summary factory's summary's,
  // else the newest sealed epoch's, else the first admitted report's.
  std::optional<typename PayloadShape<S>::type> shape_;
  // Accumulators that admitted reports in the batch being handled; they
  // copy those payloads out of the frame before the lock is released.
  std::vector<EpochAccumulator<S>*> admitted_;
  std::deque<BufferedSeal> buffered_seals_;
  bool storage_degraded_ = false;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_EPOCH_SERVICE_H_
