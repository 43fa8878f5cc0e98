// DurableStore<S>: the summary store — a crash-safe, query-serving
// layer over sealed epoch summaries, persisted as a segment log.
//
// The aggregation pipeline (aggregate/) produces one sealed summary per
// (stream, epoch). This store turns that stream of summaries into a
// service (DESIGN.md §10): it appends every sealed epoch to a segment
// log, maintains a dyadic merge tree over the epochs (dyadic.h),
// memoizes materialized merges in a bounded LRU cache with single-flight
// construction (node_cache.h), and answers arbitrary [t1, t2] range
// queries by merging O(log n) precomputed nodes instead of every raw
// epoch — the Storyboard-style precomputed aggregation design that the
// paper's merge-tree independence makes sound: *any* grouping of the
// epochs into merge trees preserves the epsilon * n guarantee, so the
// store is free to choose the grouping that serves queries fastest.
//
//   segment log    per-record-checksummed segment files (segment.h)
//                  appended through any Storage backend (FileStorage in
//                  production): every sealed epoch leaf and every
//                  completed dyadic merge node is one self-checking
//                  record keyed (stream, level, index), sealed-leaf-first
//                  so an epoch is durable before it is servable.
//   manifest       (stream, level, index) -> the latest intact record's
//                  (segment, offset, length), built by one scan at
//                  Open() and kept current by every append: flat sorted
//                  vectors of 24-byte entries (manifest.h). A node's
//                  page-in is a manifest lookup plus one range read.
//
// Determinism contract: a node's value is defined purely by the epoch
// payload bytes it covers — the canonical fold (FoldPayloadInto,
// summary_store.h) of (left, right), where canonical(s) is
// s.Canonicalize(), equal to the encode-then-decode fixed point (same
// contract as the durable coordinator) — and a range result is the
// canonical fold of its covering nodes in epoch order. Cold
// reconstruction after eviction and recovery after restart (Open)
// therefore produce byte-identical payloads; the store equivalence
// suite asserts this against a tree-free reference.
//
// Write-through: a seal puts the leaf it wrote and every node it
// completes into the node cache, so building the next level up folds
// bytes already in hand — a seal reads nothing back — and the newest
// part of the tree, which "the last w epochs" queries fold, is resident
// for as long as the cache keeps it.
//
// RAM holds the node cache and the manifest, never a copy of the
// history. Every record is one SEG1 frame whose checksum is the only
// one over its bytes: Open() verifies it on its scan, and a page-in and
// the scrubber verify it with the same call (VerifySegmentRecord), the
// page-in then parsing the payload (summary_store.h) against the
// store's tag and checking that the summary is in S's current layout.
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
//
// Concurrency: queries are safe to run concurrently with each other and
// with the scrubber (the cache serializes materialization; the log
// serializes appends). Sealing must be externally serialized with
// queries, like the rest of the write path.

#ifndef MERGEABLE_STORE_DURABLE_STORE_H_
#define MERGEABLE_STORE_DURABLE_STORE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/core/concepts.h"
#include "mergeable/store/dyadic.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/manifest.h"
#include "mergeable/store/node_cache.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/check.h"

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
  // The serving knobs: cache capacity and the summary family's epsilon.
  StoreOptions store;
  ScrubOptions scrub;
};

// One stream's leaves as Load() found them: each distinct leaf key
// whose latest intact copy decodes as a leaf of the store's summary
// type, with that copy's metadata. A key whose latest copy does not
// decode is left out, which ends a sealed prefix just as a missing leaf
// does. Two parallel vectors, ascending by index, so that Open() can
// keep `metas` as the stream's metadata without a copy.
struct ScannedStream {
  uint64_t stream = 0;
  std::vector<uint64_t> indices;
  std::vector<EpochMeta> metas;  // metas[i] is leaf indices[i]'s.
};
// Every stream with a decodable leaf on disk, ascending by stream.
using ScannedLeaves = std::vector<ScannedStream>;

// What Open() found and rebuilt.
struct OpenReport {
  size_t streams = 0;
  uint64_t segments = 0;
  uint64_t records = 0;          // Intact records admitted (latest-wins).
  // Checksum failures skipped at startup, and records too long for the
  // manifest to address (Manifest::Fits).
  uint64_t corrupt_records = 0;
  uint64_t torn_tails = 0;       // Segment tails truncated away.
  uint64_t epochs = 0;           // Epochs recovered across all streams.
  uint64_t nodes_prewarmed = 0;  // Covering nodes materialized into cache.
};

// The non-template machinery: segment log management, the manifest,
// the quarantine set, and the scrubber thread. Everything in here is
// byte-level; DurableStore<S> layers the typed tree, cache and queries
// on top, addressing records by their (stream, level, index) key.
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
  // returns every stream's latest decodable leaf copies, from which
  // DurableStore::Open() indexes each stream.
  ScannedLeaves Load(SummaryTag tag, OpenReport* report);

  // Appends one record frame (segment.h), written under the key, to the
  // current segment (rolling first if it is full) and points the
  // manifest at it. False when the backend rejected the append, or the
  // manifest could not address it (Manifest::Fits) — nothing is
  // tracked, the caller's state is unchanged.
  bool AppendFrame(uint64_t stream, uint32_t level, uint64_t index,
                   const std::vector<uint8_t>& frame);

  // AppendFrame for derived data (level >= 1): a failure is counted in
  // node_append_failures and costs a rebuild on a later read, never
  // correctness.
  void AppendNode(uint64_t stream, uint32_t level, uint64_t index,
                  const std::vector<uint8_t>& frame);

  // A record's frame as read back and verified, and where its payload
  // sits in it.
  struct PagedRecord {
    std::vector<uint8_t> frame;
    size_t payload_offset = 0;
    size_t payload_size = 0;

    std::span<const uint8_t> payload() const {
      return {frame.data() + payload_offset, payload_size};
    }
    // The payload from byte `skip` on, slid to the front of the frame's
    // own buffer: one move, no second buffer.
    std::vector<uint8_t> TakePayload(size_t skip = 0) &&;
  };

  // Pages in the manifest's record for the key: one range read of its
  // frame, checked by VerifySegmentRecord. std::nullopt when the key is
  // not in the manifest or the frame fails its checks.
  std::optional<PagedRecord> PageIn(uint64_t stream, uint32_t level,
                                    uint64_t index) const;
  // PageIn's payload alone.
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

  // First quarantined leaf index within [lo_index, hi_index], if any.
  std::optional<uint64_t> FirstQuarantinedIn(uint64_t stream,
                                             uint64_t lo_index,
                                             uint64_t hi_index) const;
  std::vector<uint64_t> QuarantinedLeaves(uint64_t stream) const;

  ScrubStats scrub_stats() const;
  uint64_t node_append_failures() const;

 private:
  // One stream's quarantined leaf indices, ascending.
  struct QuarantinedStream {
    uint64_t stream = 0;
    std::vector<uint64_t> leaves;
  };

  std::string SegmentFileName(uint64_t segment) const;
  void QuarantineLocked(uint64_t stream, uint64_t index);

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
  Manifest manifest_;
  std::vector<QuarantinedStream> quarantine_;  // Ascending by stream.
  std::optional<Manifest::Key> scrub_cursor_;
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
  struct RangeOutcome {
    // Canonical payload of the merged summary over the range (of the
    // covered prefix only, for partial answers).
    MergedSummaryCache::Payload payload;
    EpsilonReport eps;
    QueryStats stats;
    // Partial answers: true when a deadline or a quarantined epoch cut
    // the range short. The payload then covers the contiguous prefix
    // [t1, covered_hi] and eps already accounts every epoch of
    // (covered_hi, t2] as lost mass.
    bool partial = false;
    uint64_t covered_hi = 0;  // Absolute epoch; == t2 when !partial.
  };

  // `durable` (unowned) is the persistent backend — FileStorage in
  // production; MemStorage, or either one under a CrashingStorage, in
  // tests.
  explicit DurableStore(Storage* durable, DurableStoreOptions options = {})
      : options_(std::move(options)),
        log_(durable, options_),
        cache_(options_.store.cache_capacity) {
    MERGEABLE_CHECK_MSG(options_.store.epsilon > 0.0,
                        "StoreOptions::epsilon must be positive");
  }

  // Rebuilds the serving state from the segment log in one pass: scan
  // and verify, truncate torn tails, index each stream's recovered
  // epochs, pre-warm the node cache with each stream's full-range cover
  // (paged in from the log). A stream's sealed range is the longest
  // prefix of its latest leaf copies that starts at index 0, has no
  // missing or undecodable leaf, and keeps epochs contiguous. A store
  // over a backend that already holds segments must be opened before it
  // seals.
  OpenReport Open() {
    OpenReport report;
    streams_.clear();
    {
      // The scanned leaves live only until every stream is indexed.
      ScannedLeaves leaves = log_.Load(kTag, &report);
      for (ScannedStream& scanned : leaves) {
        StreamState state;
        state.metas = std::move(scanned.metas);
        // A missing or undecodable leaf ends the prefix, and so does an
        // epoch out of step: epochs must stay contiguous.
        size_t prefix = 0;
        while (prefix < state.metas.size() &&
               scanned.indices[prefix] == prefix &&
               state.metas[prefix].epoch == state.metas[0].epoch + prefix) {
          ++prefix;
        }
        if (prefix == 0) continue;
        if (prefix < state.metas.size()) {
          state.metas.resize(prefix);
          state.metas.shrink_to_fit();  // Unserved leaves cost no RAM.
        }
        state.base_epoch = state.metas[0].epoch;
        streams_[scanned.stream] = std::move(state);
      }
    }
    report.streams = streams_.size();
    for (const auto& [stream, state] : streams_) {
      report.epochs += state.metas.size();
      std::optional<RangeOutcome> out = QueryRangePayload(
          stream, state.base_epoch,
          state.base_epoch + state.metas.size() - 1);
      if (out.has_value()) report.nodes_prewarmed += out->stats.nodes_merged;
    }
    return report;
  }

  // Seals one epoch of `stream`. Epochs of a stream must be sealed in
  // order: the first seal fixes the base epoch, every later one must be
  // exactly one past the previous (gaps would make range decomposition
  // ambiguous). The leaf record is appended (and fsync'd, on
  // FileStorage) *before* the store learns of the epoch, so a false
  // return means nothing changed and the same epoch can be retried. The
  // dyadic nodes the epoch completes are appended after it,
  // best-effort: they are derived data a later read rebuilds from
  // leaves. The leaf and each node are written through the cache (see
  // the header comment), so a seal reads nothing back.
  bool Seal(uint64_t stream, const S& summary, EpochMeta meta) {
    auto it = streams_.find(stream);
    const uint64_t index = it == streams_.end() ? 0 : it->second.metas.size();
    if (index != 0) {
      MERGEABLE_CHECK_MSG(meta.epoch == it->second.base_epoch + index,
                          "epochs must be sealed contiguously in order");
    }
    std::vector<uint8_t> payload = EncodeSummary(summary);
    bytes_written_.fetch_add(kLeafHeaderBytes + payload.size(),
                             std::memory_order_relaxed);
    if (!log_.AppendFrame(stream, 0, index,
                          EncodeLeafFrame(stream, index, kTag, meta,
                                          payload))) {
      return false;
    }
    cache_.Put(NodeKey(stream, DyadicNode{0, index}), std::move(payload));
    StreamState& state = streams_[stream];
    if (index == 0) state.base_epoch = meta.epoch;
    state.metas.push_back(meta);
    epochs_sealed_.fetch_add(1, std::memory_order_relaxed);
    for (const DyadicNode& node : NodesCompletedBySeal(index)) {
      // A node over a lost leaf is left unwritten: the seal itself
      // stands, and a later read of the node meets the loss again.
      std::optional<std::vector<uint8_t>> built =
          ComputeNodePayload(stream, node, nullptr);
      if (!built.has_value()) continue;
      nodes_built_.fetch_add(1, std::memory_order_relaxed);
      node_merges_.fetch_add(1, std::memory_order_relaxed);
      AppendNode(stream, node, *built);
      cache_.Put(NodeKey(stream, node), std::move(*built));
    }
    return true;
  }

  // Seals a coordinator epoch result (the common producer). Returns
  // false when the result carries no summary (crashed / zero coverage)
  // or the leaf append failed. `expected_total_n` as in AccountErrors.
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

  // Answers the range query [t1, t2] (absolute epoch numbers, both
  // inclusive) within `deadline.budget_ms` of virtual time, charging
  // `deadline.cost_per_node_ms` per covering node: the canonical payload
  // of the merge of every sealed summary in the range, the epsilon
  // report over it, and what the answer cost. std::nullopt when the
  // stream is unknown, the range is not fully sealed, or it starts on a
  // quarantined epoch — a serving layer refuses bad queries instead of
  // aborting on them.
  //
  // Two things cut an answer short, and both fold every skipped epoch's
  // mass into the bound (AccumulateEpsilonPartial) instead of stalling
  // or refusing. A deadline the cover cannot afford: the answer is the
  // prefix of the cover the budget affords, in epoch order — at least
  // one node, the floor any deadline must afford — and is byte-identical
  // to an unbounded query over that prefix. A quarantined epoch q inside
  // the range: the answer is the prefix [t1, q-1]. A leaf that fails its
  // page-in is quarantined on the spot and the query retried with the
  // tighter clamp; each retry follows a new quarantine inside the range,
  // so the loop ends. A cut answer is cached under the range it covers,
  // never under the requested one.
  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2, QueryDeadline deadline) {
    auto it = streams_.find(stream);
    if (it == streams_.end()) return std::nullopt;
    const StreamState& state = it->second;
    if (t1 > t2 || t1 < state.base_epoch ||
        t2 >= state.base_epoch + state.metas.size()) {
      return std::nullopt;
    }
    const uint64_t lo = t1 - state.base_epoch;
    const uint64_t last = t2 - state.base_epoch;
    for (;;) {
      const std::optional<uint64_t> quarantined =
          log_.FirstQuarantinedIn(stream, lo, last);
      if (quarantined == lo) return std::nullopt;
      const uint64_t hi = quarantined.value_or(last + 1) - 1;
      std::optional<RangeOutcome> out =
          FoldRange(stream, state, lo, hi, deadline);
      if (!out.has_value()) {
        // Refused only because a leaf in [lo, hi] failed its page-in;
        // it is now quarantined. Anything else is not ours to retry.
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
      out->eps = AccumulateEpsilonPartial(
          state.metas, lo, last, out->covered_hi - state.base_epoch,
          options_.store.epsilon);
      return out;
    }
  }

  // The unbounded query: QueryRangePayloadBounded with no deadline.
  std::optional<RangeOutcome> QueryRangePayload(uint64_t stream, uint64_t t1,
                                                uint64_t t2) {
    return QueryRangePayloadBounded(stream, t1, t2, QueryDeadline{});
  }

  bool HasStream(uint64_t stream) const {
    return streams_.count(stream) != 0;
  }
  uint64_t EpochCount(uint64_t stream) const {
    auto it = streams_.find(stream);
    return it == streams_.end() ? 0 : it->second.metas.size();
  }
  // First sealed epoch number; requires the stream to exist.
  uint64_t BaseEpoch(uint64_t stream) const {
    return StateFor(stream).base_epoch;
  }
  const std::vector<EpochMeta>& Metas(uint64_t stream) const {
    return StateFor(stream).metas;
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
  CacheStats cache_stats() const { return cache_.stats(); }
  StoreStats stats() const {
    StoreStats snapshot;
    snapshot.epochs_sealed = epochs_sealed_.load(std::memory_order_relaxed);
    snapshot.nodes_built = nodes_built_.load(std::memory_order_relaxed);
    snapshot.node_merges = node_merges_.load(std::memory_order_relaxed);
    snapshot.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    snapshot.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    return snapshot;
  }
  uint64_t node_append_failures() const {
    return log_.node_append_failures();
  }
  DurableLog& log() { return log_; }

 private:
  static constexpr SummaryTag kTag = SummaryTraits<S>::kTag;

  struct StreamState {
    uint64_t base_epoch = 0;
    std::vector<EpochMeta> metas;
  };

  const StreamState& StateFor(uint64_t stream) const {
    auto it = streams_.find(stream);
    MERGEABLE_CHECK_MSG(it != streams_.end(), "unknown stream id");
    return it->second;
  }

  // Mass of a summary for epsilon accounting; types without an n()
  // notion (KMV, Bloom) contribute what the caller recorded instead.
  static uint64_t SummaryMass(const S& summary) {
    if constexpr (requires { summary.n(); }) {
      return summary.n();
    } else {
      return 0;
    }
  }

  static CacheKey NodeKey(uint64_t stream, const DyadicNode& node) {
    return CacheKey{stream, CacheEntryKind::kTreeNode, node.level,
                    node.index};
  }

  // Appends a derived node's record, best-effort (DurableLog::AppendNode).
  void AppendNode(uint64_t stream, const DyadicNode& node,
                  const std::vector<uint8_t>& payload) {
    bytes_written_.fetch_add(kRecordTagBytes + payload.size(),
                             std::memory_order_relaxed);
    log_.AppendNode(stream, node.level, node.index,
                    EncodeNodeFrame(stream, node.level, node.index, kTag,
                                    payload));
  }

  // The answer over leaf indices [lo, hi], none quarantined when the
  // caller looked: the prefix of the cover the deadline affords (the
  // whole cover when it affords it; else a partial answer of at least
  // one node, the floor any deadline must pay), folded by FoldCover and
  // memoized under the range it covers. DyadicCover is greedy from the
  // left, so a prefix of the cover of [lo, hi] is exactly the cover of
  // [lo, covered]: a cut answer is the real value of its covered range,
  // cached as that range's. std::nullopt when a leaf under the prefix
  // failed its page-in (it is quarantined by then).
  std::optional<RangeOutcome> FoldRange(uint64_t stream,
                                        const StreamState& state, uint64_t lo,
                                        uint64_t hi, QueryDeadline deadline) {
    std::vector<DyadicNode> cover = DyadicCover(lo, hi);
    const uint64_t cost = deadline.cost_per_node_ms;
    const bool cut = cost != 0 && cover.size() > deadline.budget_ms / cost;
    if (cut) cover.resize(std::max<uint64_t>(1, deadline.budget_ms / cost));
    const uint64_t covered = cover.back().last();
    RangeOutcome outcome;
    bool built = false;
    const CacheKey range_key{stream, CacheEntryKind::kRangeResult, lo,
                             covered};
    outcome.payload = cache_.GetOrBuild(range_key, [&] {
      built = true;
      return FoldCover(stream, cover, &outcome.stats);
    });
    if (outcome.payload == nullptr) return std::nullopt;
    outcome.stats.range_cache_hit = !built;
    outcome.partial = cut;
    outcome.covered_hi = state.base_epoch + covered;
    outcome.eps = AccumulateEpsilonPartial(state.metas, lo, hi, covered,
                                           options_.store.epsilon);
    return outcome;
  }

  // The node's canonical payload, computed from its children: the
  // canonical fold of (left, right). std::nullopt when a leaf under it
  // is lost.
  std::optional<std::vector<uint8_t>> ComputeNodePayload(
      uint64_t stream, const DyadicNode& node, QueryStats* query_stats) {
    MERGEABLE_CHECK_MSG(node.level >= 1, "leaves are sealed, not computed");
    const DyadicNode left{node.level - 1, node.index * 2};
    const DyadicNode right{node.level - 1, node.index * 2 + 1};
    const MergedSummaryCache::Payload left_bytes =
        NodePayload(stream, left, query_stats);
    if (left_bytes == nullptr) return std::nullopt;
    const MergedSummaryCache::Payload right_bytes =
        NodePayload(stream, right, query_stats);
    if (right_bytes == nullptr) return std::nullopt;
    std::optional<S> fold;
    FoldPayloadInto(fold, left_bytes->data(), left_bytes->size());
    FoldPayloadInto(fold, right_bytes->data(), right_bytes->size());
    return EncodeSummary<S>(*fold);
  }

  // The node's canonical payload via the cache: resident bytes, else a
  // page-in of its record, else (for a missing or rotted internal node)
  // a deterministic rebuild from the children. nullptr when a leaf it
  // needs is lost.
  MergedSummaryCache::Payload NodePayload(uint64_t stream,
                                          const DyadicNode& node,
                                          QueryStats* query_stats) {
    bool built = false;
    MergedSummaryCache::Payload payload =
        cache_.GetOrBuild(NodeKey(stream, node), [&] {
          built = true;
          return LoadOrRebuildNode(stream, node, query_stats);
        });
    if (query_stats != nullptr) {
      if (built) {
        ++query_stats->node_cache_misses;
      } else {
        ++query_stats->node_cache_hits;
      }
    }
    return payload;
  }

  std::optional<std::vector<uint8_t>> LoadOrRebuildNode(
      uint64_t stream, const DyadicNode& node, QueryStats* query_stats) {
    std::optional<DurableLog::PagedRecord> record =
        log_.PageIn(stream, node.level, node.index);
    if (record.has_value()) {
      const std::span<const uint8_t> bytes = record->payload();
      bytes_read_.fetch_add(bytes.size(), std::memory_order_relaxed);
      if (query_stats != nullptr) query_stats->bytes_read += bytes.size();
      // Where the summary starts, when the payload is this store's.
      const uint8_t* summary = nullptr;
      if (node.level == 0) {
        const std::optional<LeafRecordView> leaf =
            ViewLeafRecord(bytes.data(), bytes.size(), kTag);
        if (leaf.has_value()) summary = leaf->summary;
      } else if (const std::optional<std::span<const uint8_t>> view =
                     ViewNodeRecord(bytes.data(), bytes.size(), kTag)) {
        summary = view->data();
      }
      // The summary must be in S's current layout, too: an intact record
      // of another (a CM01 Count-Min from before packed counter arrays)
      // is refused like a rotted one, never served or merged.
      if (summary != nullptr) {
        const size_t offset = static_cast<size_t>(summary - bytes.data());
        if (OfCurrentLayout(summary, bytes.size() - offset)) {
          return std::move(*record).TakePayload(offset);
        }
      }
    }
    // Missing, rotted or of another format. A leaf is primary data that
    // cannot be rebuilt: quarantine it, as the scrubber would, and fail
    // the build. An internal node is rebuilt from its children,
    // byte-identically, and re-appended so the next restart finds it
    // intact (latest wins).
    if (node.level == 0) {
      log_.QuarantineLeaf(stream, node.index);
      return std::nullopt;
    }
    std::optional<std::vector<uint8_t>> payload =
        ComputeNodePayload(stream, node, query_stats);
    if (!payload.has_value()) return std::nullopt;
    nodes_built_.fetch_add(1, std::memory_order_relaxed);
    node_merges_.fetch_add(1, std::memory_order_relaxed);
    if (query_stats != nullptr) ++query_stats->merges_performed;
    AppendNode(stream, node, *payload);
    return payload;
  }

  // Whether a paged-in summary is in S's current layout. Its record's
  // checksum and tag held, so it is an encoding of S written by this
  // build or an older one, and every layout change moves the format's
  // magic (DESIGN §7.2). So a summary is checked in full (ValidPayload<S>)
  // until one passes, and after that one whose magic equals that
  // summary's is accepted on the magic alone: an old record is still
  // refused, and a page-in does not pay for a full decode or a
  // SpaceSaving duplicate sort.
  bool OfCurrentLayout(const uint8_t* summary, size_t size) {
    ByteReader reader(summary, size);
    uint32_t magic = 0;
    if (!reader.GetU32(&magic)) return false;
    if (magic == current_magic_.load(std::memory_order_relaxed)) return true;
    if (!ValidPayload<S>(summary, size)) return false;
    current_magic_.store(magic, std::memory_order_relaxed);
    return true;
  }

  // Materializes the cover's nodes and folds them, in epoch order, into
  // one canonical payload (FoldPayloadInto). std::nullopt when a covering
  // node cannot be materialized (a leaf under it is lost).
  std::optional<std::vector<uint8_t>> FoldCover(
      uint64_t stream, const std::vector<DyadicNode>& cover,
      QueryStats* stats) {
    stats->nodes_merged = cover.size();
    std::optional<S> fold;
    for (const DyadicNode& node : cover) {
      const MergedSummaryCache::Payload bytes =
          NodePayload(stream, node, stats);
      if (bytes == nullptr) return std::nullopt;
      // One node (a length-1 or aligned power-of-two range): its stored
      // payload already is the canonical answer.
      if (cover.size() == 1) return *bytes;
      if (fold.has_value()) ++stats->merges_performed;
      FoldPayloadInto(fold, bytes->data(), bytes->size());
    }
    return EncodeSummary<S>(*fold);
  }

  DurableStoreOptions options_;
  DurableLog log_;
  MergedSummaryCache cache_;
  std::map<uint64_t, StreamState> streams_;

  // Cumulative counters; atomic because queries (and their lazy node
  // rebuilds) may run concurrently.
  std::atomic<uint64_t> epochs_sealed_{0};
  std::atomic<uint64_t> nodes_built_{0};
  std::atomic<uint64_t> node_merges_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  // The magic of a paged-in summary that passed ValidPayload<S>; none
  // until one has (no u32 equals it).
  std::atomic<uint64_t> current_magic_{~uint64_t{0}};
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_DURABLE_STORE_H_
