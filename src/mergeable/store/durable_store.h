// DurableStore<S>: crash-safe persistence + scrubbing for the store.
//
// The SummaryStore (summary_store.h) is the serving brain — dyadic
// merge tree, cache, deadline-bounded queries — but it writes one file
// per node, which on a real disk means thousands of tiny fsyncs and no
// integrity story once the bytes are down. DurableStore wraps it in a
// two-tier design:
//
//   durable tier   per-record-checksummed segment files (segment.h)
//                  appended through any Storage backend (FileStorage in
//                  production): every sealed epoch leaf and every
//                  completed dyadic merge node is one self-checking
//                  record, sealed-leaf-first so an epoch is durable
//                  before it is servable.
//   warm tier      a private MemStorage holding the node files a
//                  SummaryStore expects, rebuilt from the segment log
//                  on Open() and kept in sync on every Seal. The inner
//                  store serves all queries from this tier at RAM
//                  speed; its node cache is pre-warmed at startup.
//
// Leaves are the truth: a lost or rotted *internal node* record is
// repaired from the warm copy (scrub) or rebuilt from children
// (restart) — it never costs correctness. A rotted *leaf* record is
// primary data whose durable truth is gone, so the scrubber
// quarantines that epoch: queries never serve it again and its whole
// mass is folded into the error bound exactly, via the same
// AccumulateEpsilonPartial arithmetic deadline-bounded queries use.
// A query [t1, t2] with a quarantined epoch q inside answers the
// prefix [t1, q-1] with eps widened by every byte of mass in
// [q, t2]; if q == t1 the query is refused.
//
// The background scrubber re-verifies segment record checksums on a
// paced schedule (ScrubOptions), repairing derived records by
// re-appending the warm copy (latest-wins on restart) and quarantining
// rotted leaves. It shares the process with the ingest path and is
// TSan-clean: the manifest and quarantine set live behind one mutex,
// both storage tiers are internally synchronized.

#ifndef MERGEABLE_STORE_DURABLE_STORE_H_
#define MERGEABLE_STORE_DURABLE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mergeable/aggregate/storage.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"

namespace mergeable {

struct ScrubOptions {
  // Pause between scrub passes (wall clock; the scrubber is a real
  // background thread).
  uint64_t interval_ms = 100;
  // Records re-verified per pass; 0 = the whole manifest every pass.
  uint64_t max_records_per_pass = 0;
};

struct ScrubStats {
  uint64_t passes = 0;
  uint64_t records_verified = 0;
  uint64_t bytes_verified = 0;
  uint64_t corrupt_found = 0;
  // Derived (level >= 1) records re-appended from the warm copy.
  uint64_t nodes_repaired = 0;
  // Level-0 records whose durable truth is gone: the epoch is dead.
  uint64_t epochs_quarantined = 0;
};

struct DurableStoreOptions {
  // Segment files live under "<prefix>/seg/".
  std::string prefix = "durable";
  // Roll to a new segment file once the current one exceeds this.
  uint64_t segment_bytes = 1 << 20;
  // The inner serving store's knobs (its prefix names the warm tier's
  // node files; it never touches the durable backend).
  StoreOptions store;
  ScrubOptions scrub;
};

// What Open() found and rebuilt.
struct OpenReport {
  size_t streams = 0;
  uint64_t segments = 0;
  uint64_t records = 0;          // Intact records admitted (latest-wins).
  uint64_t corrupt_records = 0;  // Checksum failures skipped at startup.
  uint64_t torn_tails = 0;       // Segment tails truncated away.
  uint64_t epochs = 0;           // Epochs recovered across all streams.
  uint64_t nodes_prewarmed = 0;  // Covering nodes materialized into cache.
};

// The non-template machinery: segment log management, the scrub
// manifest, the quarantine set, and the scrubber thread. Everything in
// here is byte-level; DurableStore<S> layers the typed seal/query glue
// on top.
class DurableLog {
 public:
  DurableLog(Storage* durable, const DurableStoreOptions& options);
  ~DurableLog();

  MemStorage& warm() { return warm_; }

  // Scans every segment file once, verifying each record where it sits
  // in the segment buffer: truncates torn tails (rolling to a fresh
  // segment when the newest one cannot be truncated), skips corrupt
  // records, and applies intact records latest-wins as they are
  // scanned — into the scrub manifest, and as one owned copy into the
  // warm tier's node files. Leaf records are also decoded in place
  // against `tag`. Fills the scan-side fields of `report` and returns
  // every stream's latest leaf copies for SummaryStore::OpenFromLeaves.
  ScannedLeaves Load(SummaryTag tag, OpenReport* report);

  // Appends one record to the current segment (rolling first if it is
  // full) and tracks it in the scrub manifest. False when the backend
  // rejected the append — nothing is tracked, the caller's state is
  // unchanged.
  bool AppendRecord(uint64_t stream, uint32_t level, uint64_t index,
                    const std::vector<uint8_t>& payload);

  // Best-effort: appends the warm tier's copy of a node file as a
  // durable record. Used for completed dyadic nodes (derived data —
  // a failure costs a rebuild at restart, never correctness) and for
  // scrub repairs.
  bool AppendNodeFromWarm(uint64_t stream, uint32_t level, uint64_t index);

  // One scrub pass over (a slice of) the manifest. Returns records
  // re-verified this pass.
  uint64_t ScrubPass(uint64_t max_records);

  void StartScrubber();
  void StopScrubber();
  bool scrubber_running() const;

  // First quarantined leaf index within [lo_index, hi_index], if any.
  std::optional<uint64_t> FirstQuarantinedIn(uint64_t stream,
                                             uint64_t lo_index,
                                             uint64_t hi_index) const;
  std::vector<uint64_t> QuarantinedLeaves(uint64_t stream) const;

  ScrubStats scrub_stats() const;
  uint64_t node_append_failures() const;
  uint64_t manifest_records() const;

  // The warm tier file name a (stream, level, index) record maps to —
  // the exact layout SummaryStore expects.
  std::string NodeFileName(uint64_t stream, uint32_t level,
                           uint64_t index) const;

 private:
  using RecordKey = std::tuple<uint64_t, uint32_t, uint64_t>;
  struct RecordLocation {
    uint64_t segment = 0;  // SegmentFileName(segment) holds the frame.
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  std::string SegmentFileName(uint64_t segment) const;
  bool AppendRecordLocked(uint64_t stream, uint32_t level, uint64_t index,
                          const std::vector<uint8_t>& payload);
  uint64_t ScrubPassLocked(uint64_t max_records);

  Storage* durable_;
  MemStorage warm_;
  std::string seg_dir_;
  std::string store_prefix_;
  uint64_t segment_bytes_;
  ScrubOptions scrub_options_;

  mutable std::mutex mu_;
  std::map<RecordKey, RecordLocation> manifest_;
  std::map<uint64_t, std::set<uint64_t>> quarantine_;  // stream -> leaves
  uint64_t current_segment_ = 0;
  uint64_t current_size_ = 0;
  std::optional<RecordKey> scrub_cursor_;
  ScrubStats scrub_stats_;
  uint64_t node_append_failures_ = 0;

  // Scrubber thread plumbing (separate mutex: the cv wait must not
  // block ingest work).
  mutable std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread scrub_thread_;
  bool stop_scrubber_ = false;
  bool scrubber_running_ = false;
};

template <WireSummary S>
class DurableStore {
 public:
  using RangeOutcome = typename SummaryStore<S>::RangeOutcome;

  // `durable` (unowned) is the persistent backend — FileStorage in
  // production, any CrashableStorage in tests.
  explicit DurableStore(Storage* durable, DurableStoreOptions options = {})
      : options_(std::move(options)),
        log_(durable, options_),
        inner_(&log_.warm(), options_.store) {}

  // Rebuilds the serving state from the segment log in one pass: scan
  // and verify, truncate torn tails, open the inner store from the
  // scanned leaves, pre-warm the node cache with each stream's
  // full-range cover.
  OpenReport Open() {
    OpenReport report;
    const ScannedLeaves leaves = log_.Load(SummaryTraits<S>::kTag, &report);
    report.streams = inner_.OpenFromLeaves(leaves);
    for (const auto& [stream, scanned] : leaves) {
      if (!inner_.HasStream(stream)) continue;
      const uint64_t base = inner_.BaseEpoch(stream);
      const uint64_t count = inner_.EpochCount(stream);
      report.epochs += count;
      std::optional<RangeOutcome> out =
          inner_.QueryRangePayload(stream, base, base + count - 1);
      if (out.has_value()) report.nodes_prewarmed += out->stats.nodes_merged;
    }
    return report;
  }

  // Seals one epoch durably: the leaf record is appended (and fsync'd,
  // on FileStorage) to the segment log *before* the warm tier learns of
  // it, so a false return means nothing changed and the same epoch can
  // be retried. Completed dyadic nodes are appended best-effort — they
  // are derived data a restart rebuilds from leaves.
  bool Seal(uint64_t stream, const S& summary, EpochMeta meta) {
    const uint64_t index =
        inner_.HasStream(stream) ? inner_.EpochCount(stream) : 0;
    const std::vector<uint8_t> tagged = EncodeTaggedPayload(
        SummaryTraits<S>::kTag, EncodeSummary(summary));
    const std::vector<uint8_t> record = EncodeEpochRecord(meta, tagged);
    if (!log_.AppendRecord(stream, 0, index, record)) return false;
    if (!inner_.Seal(stream, summary, meta)) return false;
    for (const DyadicNode& node : NodesCompletedBySeal(index)) {
      log_.AppendNodeFromWarm(stream, node.level, node.index);
    }
    return true;
  }

  // Seals a coordinator epoch result; same contract as
  // SummaryStore::SealResult, with durable-first semantics.
  bool SealResult(uint64_t stream, uint64_t epoch,
                  const AggregationResult<S>& result,
                  uint64_t expected_total_n = 0) {
    if (!result.summary.has_value() || result.crashed) return false;
    EpochMeta meta;
    meta.epoch = epoch;
    meta.n = SummaryMass(*result.summary);
    meta.shards_total = result.shards_total;
    meta.shards_received = result.shards_received;
    const ErrorAccounting accounting = AccountErrors(
        options_.store.epsilon, result.shards_total, result.shards_received,
        meta.n, expected_total_n);
    meta.lost_mass = accounting.lost_mass;
    meta.lost_mass_estimated = accounting.lost_mass_estimated;
    return Seal(stream, *result.summary, meta);
  }

  // Range queries, quarantine-aware: a quarantined epoch q inside
  // [t1, t2] clamps the answer to the prefix [t1, q-1] and folds every
  // byte of mass in [q, t2] into the bound via the exact partial
  // accounting; a range that *starts* on a quarantined epoch is
  // refused. Without quarantined epochs this is the inner store's
  // path, cache and all.
  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2, QueryDeadline deadline) {
    if (!inner_.HasStream(stream)) return std::nullopt;
    const uint64_t base = inner_.BaseEpoch(stream);
    const uint64_t count = inner_.EpochCount(stream);
    if (t1 > t2 || t1 < base || t2 >= base + count) return std::nullopt;
    const std::optional<uint64_t> quarantined =
        log_.FirstQuarantinedIn(stream, t1 - base, t2 - base);
    if (!quarantined.has_value()) {
      return inner_.QueryRangePayloadBounded(stream, t1, t2, deadline);
    }
    if (*quarantined == t1 - base) return std::nullopt;
    std::optional<RangeOutcome> out = inner_.QueryRangePayloadBounded(
        stream, t1, base + *quarantined - 1, deadline);
    if (!out.has_value()) return std::nullopt;
    // Re-account over the *requested* range: everything from the first
    // quarantined epoch (or the deadline cut, whichever came first)
    // through t2 is unobserved mass.
    out->partial = true;
    out->eps = AccumulateEpsilonPartial(inner_.Metas(stream), t1 - base,
                                        t2 - base, out->covered_hi - base,
                                        options_.store.epsilon);
    return out;
  }

  std::optional<RangeOutcome> QueryRangePayload(uint64_t stream, uint64_t t1,
                                                uint64_t t2) {
    return QueryRangePayloadBounded(stream, t1, t2, QueryDeadline{});
  }

  bool HasStream(uint64_t stream) const { return inner_.HasStream(stream); }
  uint64_t EpochCount(uint64_t stream) const {
    return inner_.EpochCount(stream);
  }
  uint64_t BaseEpoch(uint64_t stream) const {
    return inner_.BaseEpoch(stream);
  }
  const std::vector<EpochMeta>& Metas(uint64_t stream) const {
    return inner_.Metas(stream);
  }

  void StartScrubber() { log_.StartScrubber(); }
  void StopScrubber() { log_.StopScrubber(); }
  // One synchronous scrub pass (tests and benches drive this directly).
  uint64_t ScrubOnce(uint64_t max_records = 0) {
    return log_.ScrubPass(max_records);
  }
  ScrubStats scrub_stats() const { return log_.scrub_stats(); }
  std::vector<uint64_t> QuarantinedLeaves(uint64_t stream) const {
    return log_.QuarantinedLeaves(stream);
  }

  const DurableStoreOptions& options() const { return options_; }
  StoreStats stats() const { return inner_.stats(); }
  CacheStats cache_stats() const { return inner_.cache_stats(); }
  uint64_t node_append_failures() const {
    return log_.node_append_failures();
  }
  DurableLog& log() { return log_; }
  SummaryStore<S>& serving() { return inner_; }

 private:
  static uint64_t SummaryMass(const S& summary) {
    if constexpr (requires { summary.n(); }) {
      return summary.n();
    } else {
      return 0;
    }
  }

  DurableStoreOptions options_;
  DurableLog log_;
  SummaryStore<S> inner_;
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_DURABLE_STORE_H_
