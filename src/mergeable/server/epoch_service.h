// EpochService<S>: the summary-typed brain behind the ingest server.
//
// The server core (ingest_server.h) moves frames; this class gives them
// meaning. It plays the coordinator's role on the receiving side of the
// wire: collect one report per (shard, epoch), dedup retries through a
// bounded window (aggregate/dedup.h), and on SealEpoch() merge the
// epoch's accepted payloads into one summary that goes into the
// SummaryStore — in ascending shard order, left-deep, each step a Merge
// followed by an in-place Canonicalize() (CanonicalMergeInto), the
// exact merge the durable coordinator performs, so a server-built epoch
// is byte-identical to a Coordinator-built one over the same reports
// (the server equivalence test asserts it).
//
// Pending state is flat: each open epoch keeps its decoded reports in a
// vector in arrival order plus a shard -> position FlatMap
// (util/flat_map.h). Arrival order is irrelevant to the bytes —
// SealEpoch sorts by shard before folding — and a key re-admitted after
// its dedup entry was evicted replaces its report in place (last one
// wins). An epoch's buffers are sized once, from the shards it expects,
// so ingest allocates nothing per report beyond the decoded summary.
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
// a stalled connection.
//
// Disk pressure (StoreT = DurableStore<S>): when a seal fails because
// the durable backend rejected the append (ENOSPC, EIO), the service
// enters a degraded mode — queries keep serving from what is already
// durable, new reports are shed through the admission path's
// retry-after NACK (the client's backoff policy already honors it), and
// the failed seal is buffered for in-order retry on the next seal tick.
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
// Thread safety: HandleReport/HandleBatch/HandleQuery run on server
// worker threads; a single mutex serializes them with SealEpoch (the
// store's own contract requires sealing serialized with queries
// anyway). The batch path decodes payloads before taking the mutex and
// applies the whole batch under one acquisition — the lock amortizes
// with batch size.

#ifndef MERGEABLE_SERVER_EPOCH_SERVICE_H_
#define MERGEABLE_SERVER_EPOCH_SERVICE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/dedup.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/store/window.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/flat_map.h"

namespace mergeable {

struct EpochServiceConfig {
  uint64_t stream = 1;
  // Shards expected per epoch before any topology change; reports from
  // shard ids >= the epoch's count are rejected, and coverage
  // accounting uses it as the denominator. TOP1 announcements
  // (HandleTopology) override it per epoch from their effective epoch
  // on.
  uint64_t shards_per_epoch = 4;
  // Dedup window capacity (keys = in-flight (shard, epoch) pairs).
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
  // Largest sliding window (in epochs) served from the resident ring;
  // 0 disables the ring. Window queries beyond the ring's reach (or
  // past a warm-restart gap) fall back to the store path transparently,
  // with byte-identical answers.
  uint64_t window_capacity = 0;
};

struct EpochServiceStats {
  uint64_t reports_accepted = 0;
  uint64_t reports_duplicate = 0;
  uint64_t reports_rejected = 0;  // Malformed / misrouted shard or epoch.
  uint64_t reports_shed_storage = 0;  // Retry-after NACKs while degraded.
  uint64_t batches_handled = 0;    // Well-formed BAT1 frames processed.
  uint64_t batches_malformed = 0;  // BAT1 frames that failed to decode.
  uint64_t queries_answered = 0;
  uint64_t queries_partial = 0;
  uint64_t queries_refused = 0;  // Unknown stream / unsealed range.
  uint64_t queries_window = 0;       // Window-addressed queries answered.
  uint64_t queries_window_ring = 0;  // ... of those, served from the ring.
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

template <WireSummary S, typename StoreT = SummaryStore<S>>
class EpochService : public FrameHandler {
 public:
  EpochService(StoreT* store, EpochServiceConfig config)
      : store_(store), config_(config), dedup_(config.dedup_capacity) {
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
    if (config_.window_capacity > 0) {
      ring_.emplace(config_.window_capacity, StoreEpsilon());
    }
  }

  // Installs the maker of empty (zero-mass) summaries used for
  // placeholder seals: zero-report epochs and buffer-overflow
  // degradation. Without one, a zero-report epoch is skipped (the
  // pre-durability behavior) and overflowing buffered seals keep their
  // payloads in memory.
  void set_empty_summary_factory(std::function<S()> factory) {
    std::lock_guard<std::mutex> lock(mu_);
    empty_summary_ = std::move(factory);
  }

  std::vector<uint8_t> HandleReport(
      const std::vector<uint8_t>& frame) override {
    std::optional<WireReport> report = DecodeReportFrame(frame);
    WireControl control;
    if (!report.has_value()) {
      control.code = ControlCode::kRejected;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reports_rejected;
      return EncodeControlFrame(control);
    }
    control.shard_id = report->shard_id;
    control.epoch = report->epoch;

    std::lock_guard<std::mutex> lock(mu_);
    if (report->epoch < next_epoch_ ||
        report->shard_id >= ShardsForEpochLocked(report->epoch)) {
      // Misrouted shard, or a straggler for an epoch already sealed —
      // resending cannot help either one.
      control.code = ControlCode::kRejected;
      ++stats_.reports_rejected;
      return EncodeControlFrame(control);
    }
    if (storage_degraded_) {
      // Disk pressure: shed before dedup admission so the client's
      // retry (post-backoff) is not misclassified as a duplicate. The
      // shard keeps the report; its mass is only lost if the epoch
      // seals before the disk recovers — and then it is counted lost.
      control.code = ControlCode::kRetryAfter;
      control.retry_after_ms = config_.storage_retry_after_ms;
      ++stats_.reports_shed_storage;
      return EncodeControlFrame(control);
    }
    // Validate the payload decodes as this service's summary type
    // before dedup admission: a corrupt payload acked now would abort
    // the seal later, long after the client stopped listening — and a
    // rejected payload must not poison its (shard, epoch) dedup key, or
    // the shard's corrected retry would be misread as a duplicate and
    // its mass silently lost.
    ByteReader reader(report->payload);
    std::optional<S> summary = S::DecodeFrom(reader);
    if (!summary.has_value() || !reader.Exhausted()) {
      control.code = ControlCode::kRejected;
      ++stats_.reports_rejected;
      return EncodeControlFrame(control);
    }
    if (!dedup_.Admit(report->shard_id, report->epoch)) {
      control.code = ControlCode::kDuplicate;
      ++stats_.reports_duplicate;
      return EncodeControlFrame(control);
    }
    AddPendingLocked(report->epoch, report->shard_id, std::move(*summary));
    control.code = ControlCode::kAccepted;
    ++stats_.reports_accepted;
    return EncodeControlFrame(control);
  }

  // The batched hot path: decode and payload-validate every record
  // outside the service mutex (the expensive part — summary decoding),
  // then apply the whole batch under one lock acquisition, so a
  // 256-report batch costs one lock round instead of 256. Verdicts come
  // back per record, in record order; a duplicate batch replayed after
  // a lost verdict answers kDuplicate on every record and counts
  // nothing twice (the dedup window is consulted exactly as the
  // single-report path does).
  std::vector<uint8_t> HandleBatch(
      const std::vector<uint8_t>& frame) override {
    // Zero-copy view: every payload is decoded straight out of the
    // frame — ViewBatchFrame validates the envelope exactly as
    // DecodeBatchFrame would, without materializing per-record vectors.
    std::vector<BatchRecordView> records;
    WireBatchVerdict verdict;
    if (!ViewBatchFrame(frame, &records)) {
      verdict.batch_code = ControlCode::kRejected;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches_malformed;
      return EncodeBatchVerdictFrame(verdict);
    }
    std::vector<std::optional<S>> summaries;
    summaries.reserve(records.size());
    for (const BatchRecordView& record : records) {
      ByteReader reader(record.payload, record.payload_len);
      std::optional<S> summary = S::DecodeFrom(reader);
      if (summary.has_value() && !reader.Exhausted()) summary.reset();
      summaries.push_back(std::move(summary));
    }
    verdict.codes.reserve(records.size());

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches_handled;
    for (size_t i = 0; i < records.size(); ++i) {
      const BatchRecordView& record = records[i];
      ControlCode code;
      if (record.epoch < next_epoch_ ||
          record.shard_id >= ShardsForEpochLocked(record.epoch)) {
        code = ControlCode::kRejected;
        ++stats_.reports_rejected;
      } else if (storage_degraded_) {
        code = ControlCode::kRetryAfter;
        verdict.retry_after_ms = config_.storage_retry_after_ms;
        ++stats_.reports_shed_storage;
      } else if (!summaries[i].has_value()) {
        code = ControlCode::kRejected;
        ++stats_.reports_rejected;
      } else if (!dedup_.Admit(record.shard_id, record.epoch)) {
        code = ControlCode::kDuplicate;
        ++stats_.reports_duplicate;
      } else {
        AddPendingLocked(record.epoch, record.shard_id,
                         std::move(*summaries[i]));
        code = ControlCode::kAccepted;
        ++stats_.reports_accepted;
      }
      verdict.codes.push_back(code);
    }
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
      // Sliding-window addressing: resolve "the last w epochs" against
      // the stream's sealed history (clamped when shorter), then serve
      // from the resident ring when it covers the window — the store
      // path answers byte-identically otherwise, so callers cannot tell
      // which tier replied except through the stats.
      if (query->stream != config_.stream ||
          !store_->HasStream(config_.stream)) {
        answer.status = AnswerStatus::kUnknownRange;
        ++stats_.queries_refused;
        return EncodeAnswerFrame(answer);
      }
      const uint64_t base = store_->BaseEpoch(config_.stream);
      const uint64_t count = store_->EpochCount(config_.stream);
      const uint64_t w = std::min<uint64_t>(query->window, count);
      answer.t1 = base + count - w;
      answer.t2 = base + count - 1;
      query->t1 = answer.t1;
      query->t2 = answer.t2;
      ++stats_.queries_window;
      if (ring_.has_value() && ring_->next_index() == count) {
        std::optional<typename SlidingWindowRing<S>::Outcome> window =
            ring_->Query(w);
        if (window.has_value()) {
          ++stats_.queries_window_ring;
          answer.status = AnswerStatus::kOk;
          answer.epochs_covered = w;
          FillEpsilon(&answer, window->eps);
          answer.payload = EncodeTaggedPayload(SummaryTraits<S>::kTag,
                                               window->payload);
          ++stats_.queries_answered;
          return EncodeAnswerFrame(answer);
        }
      }
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
    for (auto epoch_it = pending_.lower_bound(topology->effective_epoch);
         epoch_it != pending_.end(); ++epoch_it) {
      const uint64_t shards = ShardsForEpochLocked(epoch_it->first);
      PendingEpoch& pending = epoch_it->second;
      const size_t dropped = std::erase_if(
          pending.reports,
          [shards](const auto& report) { return report.first >= shards; });
      if (dropped == 0) continue;
      stats_.reports_dropped_topology += dropped;
      pending.slot_of.Clear();
      for (size_t i = 0; i < pending.reports.size(); ++i) {
        pending.slot_of.Insert(pending.reports[i].first,
                               static_cast<uint32_t>(i));
      }
    }
    control.code = ControlCode::kAccepted;
    ++stats_.topology_accepted;
    return EncodeControlFrame(control);
  }

  // Seals `epoch` into the store from whatever reports arrived:
  // ascending shard order, left-deep canonical merge (Merge, then
  // Canonicalize() in place) — byte-identical to Coordinator::RunDurable
  // over the same payloads. `offered_n` is the total mass the shards
  // tried to send (what the chaos harness knows it offered); everything
  // that did not arrive — shed, dropped, never sent — becomes lost mass.
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
      std::vector<std::pair<uint64_t, S>>& reports = it->second.reports;
      // (shard, position), sorted: the fold order without moving a
      // summary.
      std::vector<std::pair<uint64_t, uint32_t>> order;
      order.reserve(reports.size());
      for (size_t i = 0; i < reports.size(); ++i) {
        order.emplace_back(reports[i].first, static_cast<uint32_t>(i));
      }
      std::sort(order.begin(), order.end());
      for (const auto& [shard, index] : order) {
        S& summary = reports[index].second;
        ++result.shards_received;
        if (result.summary.has_value()) {
          CanonicalMergeInto(*result.summary, summary);
        } else {
          result.summary = CanonicalForm(std::move(summary));
        }
      }
    }
    // Epochs at or below the seal point can never be admitted again
    // (HandleReport rejects them), so their pending state is dead.
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
    for (const auto& [epoch, pending] : pending_) n += pending.reports.size();
    return n;
  }
  size_t dedup_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dedup_.size();
  }
  uint64_t dedup_evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dedup_.evictions();
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

  // One open epoch's admitted reports, in arrival order, and where each
  // shard's report sits in `reports`.
  struct PendingEpoch {
    std::vector<std::pair<uint64_t, S>> reports;  // (shard, summary)
    FlatMap<uint32_t> slot_of;
  };

  // Cap on pre-sizing an epoch's buffers: the shard count can come off
  // the wire (TOP1), so it must not drive the allocation alone.
  static constexpr uint64_t kPendingReserveCap = uint64_t{1} << 13;

  // Records an admitted report. A shard already pending for the epoch
  // (re-admitted after its dedup entry was evicted) is replaced: the
  // last report wins, as a retry carries the same payload.
  void AddPendingLocked(uint64_t epoch, uint64_t shard, S summary) {
    auto it = pending_.find(epoch);
    if (it == pending_.end()) {
      // Sized for the shards the epoch expects, so filling it never
      // reallocates (peak memory stays at one copy of the reports).
      it = pending_.try_emplace(epoch).first;
      const size_t expected = static_cast<size_t>(
          std::min(ShardsForEpochLocked(epoch), kPendingReserveCap));
      it->second.reports.reserve(expected);
      it->second.slot_of.Reserve(expected);
    }
    PendingEpoch& pending = it->second;
    if (const uint32_t* slot = pending.slot_of.Find(shard)) {
      pending.reports[*slot].second = std::move(summary);
      return;
    }
    pending.slot_of.Insert(shard,
                           static_cast<uint32_t>(pending.reports.size()));
    pending.reports.emplace_back(shard, std::move(summary));
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
      // Feed the window ring the leaf the store just wrote: the same
      // summary and the meta the store recorded, under the store's own
      // relative index — what keeps ring answers byte-identical.
      if (ring_.has_value() && seal.result.summary.has_value()) {
        const uint64_t index = store_->EpochCount(config_.stream) - 1;
        if (ring_->next_index() == index || ring_->next_index() == 0) {
          ring_->OnSeal(index, *seal.result.summary,
                        store_->Metas(config_.stream).back());
        }
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

  // The serving epsilon, independent of whether the store is the plain
  // SummaryStore (options().epsilon) or the durable wrapper
  // (options().store.epsilon).
  double StoreEpsilon() const {
    if constexpr (requires { store_->options().epsilon; }) {
      return store_->options().epsilon;
    } else {
      return store_->options().store.epsilon;
    }
  }

  StoreT* store_;
  EpochServiceConfig config_;

  mutable std::mutex mu_;
  DedupWindow dedup_;
  // Open epochs, ascending (a handful: the ones between the seal point
  // and the newest report).
  std::map<uint64_t, PendingEpoch> pending_;
  // effective_epoch -> shard count, from accepted TOP1 announcements.
  // Ordered: ShardsForEpochLocked takes the latest entry <= the epoch.
  std::map<uint64_t, uint64_t> topology_;
  uint64_t next_epoch_ = 0;
  EpochServiceStats stats_;
  std::function<S()> empty_summary_;
  std::deque<BufferedSeal> buffered_seals_;
  bool storage_degraded_ = false;
  // Resident suffix of the dyadic tree for window queries; disabled
  // when config_.window_capacity == 0.
  std::optional<SlidingWindowRing<S>> ring_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_EPOCH_SERVICE_H_
