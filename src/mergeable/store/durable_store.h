// DurableStore<S>: crash-safe persistence + scrubbing for the store.
//
// The SummaryStore (summary_store.h) is the serving brain — dyadic
// merge tree, cache, deadline-bounded queries — but it writes one file
// per node, which on a real disk means thousands of tiny fsyncs and no
// integrity story once the bytes are down. DurableStore serves it from
// a segment log instead:
//
//   segment log    per-record-checksummed segment files (segment.h)
//                  appended through any Storage backend (FileStorage in
//                  production): every sealed epoch leaf and every
//                  completed dyadic merge node is one self-checking
//                  record, sealed-leaf-first so an epoch is durable
//                  before it is servable.
//   manifest       (stream, level, index) -> the latest intact record's
//                  (segment, offset, length), built by one scan at
//                  Open() and kept current by every append. It is the
//                  serving index: the inner store's node files are a
//                  Storage view over the log (LogNodeStorage), where a
//                  write appends a record and a read is a manifest
//                  lookup plus one range read of the record.
//
// RAM holds the node cache and the manifest, never a copy of the
// history. A page-in checks the frame's magic, length and key against
// the manifest entry; the payload then goes through the same envelope
// checks (EPH1 and tagged checksums) as any cache miss.
//
// Leaves are the truth: a lost or rotted *internal node* record is
// rebuilt from its children and re-appended (latest-wins) — it never
// costs correctness. A rotted *leaf* record is primary data whose
// durable truth is gone, so the epoch is quarantined, whether the
// scrubber or a page-in finds it: queries never serve it again and its
// whole mass is folded into the error bound exactly, via the same
// AccumulateEpsilonPartial arithmetic deadline-bounded queries use.
// A query [t1, t2] with a quarantined epoch q inside answers the
// prefix [t1, q-1] with eps widened by every byte of mass in
// [q, t2]; if q == t1 the query is refused.
//
// The background scrubber re-verifies segment record checksums on a
// paced schedule (ScrubOptions), dropping rotted derived records from
// the manifest (the next read rebuilds and re-appends them) and
// quarantining rotted leaves. It shares the process with the ingest
// path and is TSan-clean. No lock is held across disk I/O that a query
// waits on: the manifest and quarantine set live behind one mutex held
// only for lookups and updates; appends are serialized on their own
// mutex and publish their manifest entry once the append returned; the
// scrubber snapshots its slice under the lock, reads and verifies
// outside it, and applies the results under it.

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
  // Derived (level >= 1) records dropped from the manifest; the next
  // read of each rebuilds it from its children and re-appends it.
  uint64_t nodes_repaired = 0;
  // Level-0 records whose durable truth is gone, found by the scrubber
  // or at page-in: the epoch is dead.
  uint64_t epochs_quarantined = 0;
};

struct DurableStoreOptions {
  // Segment files live under "<prefix>/seg/".
  std::string prefix = "durable";
  // Roll to a new segment file once the current one exceeds this.
  uint64_t segment_bytes = 1 << 20;
  // The inner serving store's knobs (its prefix names the node files of
  // the log's Storage view).
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

// The non-template machinery: segment log management, the manifest,
// the quarantine set, and the scrubber thread. Everything in here is
// byte-level; DurableStore<S> layers the typed seal/query glue on top.
class DurableLog {
 public:
  DurableLog(Storage* durable, const DurableStoreOptions& options);
  ~DurableLog();

  // Scans every segment file once, one segment buffer at a time,
  // verifying each record where it sits: truncates torn tails (rolling
  // to a fresh segment when the newest one cannot be read or
  // truncated), skips
  // corrupt records, and applies intact records latest-wins to the
  // manifest as they are scanned. Leaf records are also decoded in
  // place against `tag`. Fills the scan-side fields of `report` and
  // returns every stream's latest leaf copies for
  // SummaryStore::OpenFromLeaves.
  ScannedLeaves Load(SummaryTag tag, OpenReport* report);

  // Appends one record to the current segment (rolling first if it is
  // full) and points the manifest at it. False when the backend
  // rejected the append — nothing is tracked, the caller's state is
  // unchanged.
  bool AppendRecord(uint64_t stream, uint32_t level, uint64_t index,
                    const std::vector<uint8_t>& payload);

  // AppendRecord for derived data (level >= 1): a failure is counted in
  // node_append_failures and costs a rebuild on a later read, never
  // correctness.
  void AppendNode(uint64_t stream, uint32_t level, uint64_t index,
                  const std::vector<uint8_t>& payload);

  // Pages in the payload of the manifest's record for the key: one range
  // read of its frame, checked by ViewPagedRecord. std::nullopt when the
  // key is not in the manifest or the frame fails its checks.
  std::optional<std::vector<uint8_t>> ReadRecord(uint64_t stream,
                                                 uint32_t level,
                                                 uint64_t index) const;

  // Quarantines a leaf whose record failed its checks, exactly as the
  // scrubber does: the leaf leaves the manifest and queries clamp
  // around it.
  void QuarantineLeaf(uint64_t stream, uint64_t index);

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

 private:
  using RecordKey = std::tuple<uint64_t, uint32_t, uint64_t>;
  struct RecordLocation {
    uint64_t segment = 0;  // SegmentFileName(segment) holds the frame.
    uint64_t offset = 0;
    uint64_t length = 0;
    friend bool operator==(const RecordLocation&,
                           const RecordLocation&) = default;
  };

  std::string SegmentFileName(uint64_t segment) const;
  void QuarantineLocked(const RecordKey& key);

  Storage* durable_;
  std::string seg_dir_;
  uint64_t segment_bytes_;
  ScrubOptions scrub_options_;

  // Serializes appends: the segment choice, the backend append (write +
  // fsync) and the tail position. Taken before mu_, never inside it.
  std::mutex append_mu_;
  uint64_t current_segment_ = 0;  // Guarded by append_mu_.
  uint64_t current_size_ = 0;     // Guarded by append_mu_.

  // Guards the manifest, the quarantine set and the scrub state; never
  // held across disk I/O.
  mutable std::mutex mu_;
  std::map<RecordKey, RecordLocation> manifest_;
  std::map<uint64_t, std::set<uint64_t>> quarantine_;  // stream -> leaves
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

// The node files a SummaryStore expects (summary_store.h's NodeFileName
// layout under `prefix`), served by a DurableLog. Rewrite of a node file
// appends a record: a leaf's result is the append's, a derived node's
// append is best-effort (DurableLog::AppendNode) and reported as done,
// since a missing node only costs a rebuild on read. Read is a page-in
// (DurableLog::ReadRecord). Node files are written whole, so Append and
// Truncate refuse; List is empty — DurableStore opens the inner store
// from the log's scan, never by listing.
class LogNodeStorage : public Storage {
 public:
  LogNodeStorage(DurableLog* log, std::string prefix)
      : log_(log), prefix_(std::move(prefix)) {}

  bool Append(const std::string&, const std::vector<uint8_t>&) override {
    return false;
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override;
  bool Truncate(const std::string&, uint64_t) override { return false; }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override;
  std::vector<std::string> List() const override { return {}; }

 private:
  DurableLog* log_;
  std::string prefix_;
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
        nodes_(&log_, options_.store.prefix),
        inner_(&nodes_, options_.store,
               [this](uint64_t stream, uint64_t index) {
                 log_.QuarantineLeaf(stream, index);
               }) {}

  // Rebuilds the serving state from the segment log in one pass: scan
  // and verify, truncate torn tails, open the inner store from the
  // scanned leaves, pre-warm the node cache with each stream's
  // full-range cover (paged in from the log).
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

  // Seals one epoch durably through the inner store: the leaf record
  // is appended (and fsync'd, on FileStorage) to the segment log
  // *before* the inner store learns of the epoch, so a false return
  // means nothing changed and the same epoch can be retried. Completed
  // dyadic nodes are appended after it, best-effort — they are derived
  // data a later read rebuilds from leaves.
  bool Seal(uint64_t stream, const S& summary, EpochMeta meta) {
    return inner_.Seal(stream, summary, meta);
  }

  // Seals a coordinator epoch result; same contract as
  // SummaryStore::SealResult, with durable-first semantics.
  bool SealResult(uint64_t stream, uint64_t epoch,
                  const AggregationResult<S>& result,
                  uint64_t expected_total_n = 0) {
    return inner_.SealResult(stream, epoch, result, expected_total_n);
  }

  // Range queries, quarantine-aware: a quarantined epoch q inside
  // [t1, t2] clamps the answer to the prefix [t1, q-1] and folds every
  // byte of mass in [q, t2] into the bound via the exact partial
  // accounting; a range that *starts* on a quarantined epoch is
  // refused. Without quarantined epochs this is the inner store's
  // path, cache and all. A leaf that fails its page-in checks is
  // quarantined by the inner store's LeafLossHandler and the query
  // retried with the tighter clamp; each retry follows a new
  // quarantine inside the range, so the loop ends.
  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2, QueryDeadline deadline) {
    if (!inner_.HasStream(stream)) return std::nullopt;
    const uint64_t base = inner_.BaseEpoch(stream);
    const uint64_t count = inner_.EpochCount(stream);
    if (t1 > t2 || t1 < base || t2 >= base + count) return std::nullopt;
    const uint64_t lo = t1 - base;
    for (;;) {
      const std::optional<uint64_t> quarantined =
          log_.FirstQuarantinedIn(stream, lo, t2 - base);
      if (quarantined == lo) return std::nullopt;
      const uint64_t hi = quarantined.value_or(t2 - base + 1) - 1;
      std::optional<RangeOutcome> out =
          inner_.QueryRangePayloadBounded(stream, t1, base + hi, deadline);
      if (!out.has_value()) {
        // Refused only because a leaf in [lo, hi] was lost; it is now
        // quarantined. Anything else is not ours to retry.
        if (!log_.FirstQuarantinedIn(stream, lo, hi).has_value()) {
          return std::nullopt;
        }
        continue;
      }
      if (!quarantined.has_value()) return out;
      // Re-account over the *requested* range: everything from the
      // first quarantined epoch (or the deadline cut, whichever came
      // first) through t2 is unobserved mass.
      out->partial = true;
      out->eps = AccumulateEpsilonPartial(inner_.Metas(stream), lo, t2 - base,
                                          out->covered_hi - base,
                                          options_.store.epsilon);
      return out;
    }
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
  DurableStoreOptions options_;
  DurableLog log_;
  LogNodeStorage nodes_;
  SummaryStore<S> inner_;
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_DURABLE_STORE_H_
