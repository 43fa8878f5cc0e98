// The summary store: a query-serving layer over sealed epoch summaries.
//
// The aggregation pipeline (aggregate/) produces one sealed summary per
// (stream, epoch). This store is what turns that stream of summaries
// into a service (DESIGN.md §10): it persists every sealed epoch
// through the Storage abstraction, maintains a dyadic merge tree over
// the epochs (dyadic.h), memoizes materialized merges in a bounded LRU
// cache with single-flight construction (node_cache.h), and answers
// arbitrary [t1, t2] range queries by merging O(log n) precomputed
// nodes instead of every raw epoch — the Storyboard-style precomputed
// aggregation design that the paper's merge-tree independence makes
// sound: *any* grouping of the epochs into merge trees preserves the
// epsilon * n guarantee, so the store is free to choose the grouping
// that serves queries fastest.
//
// Determinism contract: a node's value is defined purely by the epoch
// payload bytes it covers — node = canonical(merge(left, right)), where
// canonical(s) is s.Canonicalize(), equal to the encode-then-decode
// fixed point (same contract as the durable coordinator) — and a range
// result is the balanced canonical merge of its covering nodes. Cold
// reconstruction after eviction, recovery after restart (Open), batch
// sealing and parallel query execution all therefore produce
// byte-identical payloads; the store equivalence suite asserts this
// against a tree-free reference.
//
// Write-through: a seal puts the leaf it wrote and every node it
// completes into the node cache, so building the next level up folds
// bytes already in hand — a seal reads nothing back — and the newest
// part of the tree, which "the last w epochs" queries fold, is
// resident for as long as the cache keeps it.
//
// Storage layout: one file per node, named
//   <prefix>/s<stream>/n<level>.<index>
// Level-0 files hold an epoch record (epoch_meta.h: metadata + tagged
// payload); higher levels hold a tagged payload (wire.h). Files are
// immutable once written. After a crash, Open() recovers each stream's
// longest valid epoch prefix and lazily rebuilds any missing or torn
// internal node from its children — torn internal nodes cost merges,
// never correctness. A sealed leaf that later goes missing or fails its
// checks cannot be rebuilt: the store reports it to its LeafLossHandler
// and refuses the query that needed it, instead of aborting.
//
// Concurrency: queries are safe to run concurrently with each other
// (the cache serializes materialization; storage reads are const).
// Sealing must be externally serialized with queries, like the rest of
// the write path.

#ifndef MERGEABLE_STORE_SUMMARY_STORE_H_
#define MERGEABLE_STORE_SUMMARY_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/summary_registry.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/concepts.h"
#include "mergeable/core/merge_driver.h"
#include "mergeable/core/thread_pool.h"
#include "mergeable/store/dyadic.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/store/node_cache.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/check.h"

namespace mergeable {

// The summary's canonical encoding.
template <WireSummary S>
std::vector<uint8_t> EncodeSummary(const S& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.TakeBytes();
}

// Decodes bytes this process (or a healthy peer) encoded itself; a
// failure is a codec bug, not bad input, so it aborts.
template <WireSummary S>
S DecodeSummaryOrDie(const std::vector<uint8_t>& payload) {
  ByteReader reader(payload);
  std::optional<S> summary = S::DecodeFrom(reader);
  MERGEABLE_CHECK_MSG(summary.has_value() && reader.Exhausted(),
                      "self-produced summary payload must decode");
  return std::move(*summary);
}

// The canonical form of `summary`: S::Canonicalize(), which equals the
// encode-then-decode fixed point without the round trip. Codecs that do
// not serialize incidental state (RNG positions, slot layout) re-derive
// it from content, so two summaries with equal canonical form evolve
// identically under further merges — the property every deterministic-
// replay path here relies on (see aggregate/coordinator.h, which
// maintains the same form for crash recovery).
template <WireSummary S>
S CanonicalForm(S summary) {
  summary.Canonicalize();
  return summary;
}

// The merge the store uses everywhere: absorb `from`, then re-canonize
// in place. Folding with this function is associative *by construction*
// over canonical payloads, which is what makes any dyadic regrouping of
// the same epochs byte-stable.
template <WireSummary S>
void CanonicalMergeInto(S& into, const S& from) {
  into.Merge(from);
  into.Canonicalize();
}

// A level-0 node file verified in place: the EPH1 epoch record, the
// tagged envelope it carries, and the tag must all check out. `summary`
// points into the viewed bytes and is valid only while they are.
struct LeafRecordView {
  EpochMeta meta;
  const uint8_t* summary = nullptr;
  size_t summary_size = 0;
};

inline std::optional<LeafRecordView> ViewLeafRecord(const uint8_t* bytes,
                                                    size_t size,
                                                    SummaryTag tag) {
  const std::optional<EpochRecordView> record = ViewEpochRecord(bytes, size);
  if (!record.has_value()) return std::nullopt;
  const std::optional<TaggedPayloadView> tagged =
      ViewTaggedPayload(record->payload, record->payload_size);
  if (!tagged.has_value() || tagged->tag != tag) return std::nullopt;
  return LeafRecordView{record->meta, tagged->payload, tagged->payload_size};
}

// The storage file name of node (level, index) of `stream` under
// `prefix`, and its inverse (false for a name that is not a node file).
inline std::string NodeFileName(const std::string& prefix, uint64_t stream,
                                uint32_t level, uint64_t index) {
  return prefix + "/s" + std::to_string(stream) + "/n" +
         std::to_string(level) + "." + std::to_string(index);
}

inline bool ParseNodeFileName(const std::string& prefix,
                              const std::string& file, uint64_t* stream,
                              uint32_t* level, uint64_t* index) {
  const std::string lead = prefix + "/s";
  if (file.compare(0, lead.size(), lead) != 0) return false;
  const size_t pos = lead.size();
  const size_t slash = file.find('/', pos);
  if (slash == std::string::npos || file.size() <= slash + 1 ||
      file[slash + 1] != 'n') {
    return false;
  }
  const size_t dot = file.find('.', slash + 2);
  if (dot == std::string::npos) return false;
  try {
    *stream = std::stoull(file.substr(pos, slash - pos));
    *level = static_cast<uint32_t>(
        std::stoul(file.substr(slash + 2, dot - slash - 2)));
    *index = std::stoull(file.substr(dot + 1));
  } catch (...) {
    return false;
  }
  return true;
}

// Told which sealed leaf (stream, leaf index) went missing or failed
// its checks underneath the store. Runs on the querying thread, before
// the query that needed the leaf is refused; concurrent queries may
// call it concurrently.
using LeafLossHandler = std::function<void(uint64_t stream, uint64_t index)>;

// Per stream, leaf index -> the metadata of that leaf's latest copy, or
// std::nullopt when that copy does not decode as a leaf of the store's
// summary type.
using ScannedLeaves =
    std::map<uint64_t, std::map<uint64_t, std::optional<EpochMeta>>>;

// Execution + serving knobs.
struct StoreOptions {
  // Storage file-name prefix; two stores can share one Storage backend
  // under different prefixes.
  std::string prefix = "store";
  // Maximum entries in the merged-summary cache (tree nodes and range
  // results share it).
  size_t cache_capacity = 128;
  // The summary family's native error parameter; range queries report
  // bounds in terms of it (EpsilonReport).
  double epsilon = 0.01;
  // Threads for batch sealing and query-time node merging. 1 = fully
  // sequential. Results are byte-identical for every value.
  int num_threads = 1;
};

// Deadline budget for a bounded range query. Time is virtual: the
// query charges `cost_per_node_ms` against `budget_ms` for every
// covering node it materializes and merges, which keeps tests and the
// chaos harness deterministic (a slow-merge injection is just a large
// cost) while modeling exactly the decision a wall-clock deadline
// forces: stop merging, answer with what you have, widen epsilon by
// what you skipped.
struct QueryDeadline {
  // Virtual milliseconds available; UINT64_MAX = unbounded.
  uint64_t budget_ms = ~uint64_t{0};
  // Virtual cost charged per covering node (fetch + merge).
  uint64_t cost_per_node_ms = 0;
};

// What one range query cost (per-query mirror of the global counters).
struct QueryStats {
  uint64_t nodes_merged = 0;      // Covering nodes fetched (0 if warm).
  uint64_t merges_performed = 0;  // Summary Merge calls for this query.
  uint64_t node_cache_hits = 0;
  uint64_t node_cache_misses = 0;
  uint64_t bytes_read = 0;        // Storage bytes fetched.
  bool range_cache_hit = false;   // The whole answer was memoized.
};

// Cumulative serving counters.
struct StoreStats {
  uint64_t epochs_sealed = 0;
  uint64_t nodes_built = 0;    // Internal nodes materialized (and rebuilt).
  uint64_t node_merges = 0;    // Merge calls for tree maintenance.
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

template <WireSummary S>
class SummaryStore {
 public:
  struct RangeOutcome {
    // Canonical payload of the merged summary over the range (of the
    // covered prefix only, for partial answers).
    MergedSummaryCache::Payload payload;
    EpsilonReport eps;
    QueryStats stats;
    // Deadline-bounded answers: true when the budget ran out before the
    // whole range was merged. The payload then covers the contiguous
    // prefix [t1, covered_hi] and eps already accounts every epoch of
    // (covered_hi, t2] as lost mass.
    bool partial = false;
    uint64_t covered_hi = 0;  // Absolute epoch; == t2 when !partial.
  };

  explicit SummaryStore(Storage* storage, StoreOptions options = {},
                        LeafLossHandler on_leaf_lost = {})
      : storage_(storage), options_(std::move(options)),
        on_leaf_lost_(std::move(on_leaf_lost)),
        cache_(options_.cache_capacity),
        pool_(options_.num_threads >= 1 ? options_.num_threads : 1) {
    MERGEABLE_CHECK_MSG(storage != nullptr, "SummaryStore needs storage");
    MERGEABLE_CHECK_MSG(options_.num_threads >= 1,
                        "StoreOptions::num_threads must be >= 1");
    MERGEABLE_CHECK_MSG(options_.epsilon > 0.0,
                        "StoreOptions::epsilon must be positive");
  }

  // Rebuilds the stream index from storage after a restart: reads and
  // verifies every leaf file under the prefix, then applies the prefix
  // rule of OpenFromLeaves (torn *internal* nodes are rebuilt lazily
  // from children). Returns the number of streams recovered.
  size_t Open() {
    ScannedLeaves leaves;
    for (const std::string& file : storage_->List()) {
      uint64_t stream = 0;
      uint32_t level = 0;
      uint64_t index = 0;
      if (!ParseNodeFileName(options_.prefix, file, &stream, &level,
                             &index)) {
        continue;
      }
      if (level != 0) continue;
      std::optional<EpochMeta>& meta = leaves[stream][index];
      const std::optional<std::vector<uint8_t>> bytes = storage_->Read(file);
      if (!bytes.has_value()) continue;
      const std::optional<LeafRecordView> record =
          ViewLeafRecord(bytes->data(), bytes->size(), kTag);
      if (record.has_value()) meta = record->meta;
    }
    return OpenFromLeaves(leaves);
  }

  // Rebuilds the stream index from leaves a caller already read and
  // verified (DurableStore scans its segment log once and hands the
  // leaves over). Each stream's sealed range is the longest prefix of
  // its leaves that starts at index 0, has no missing or undecodable
  // leaf, and keeps epochs contiguous. Returns the number of streams
  // recovered.
  size_t OpenFromLeaves(const ScannedLeaves& leaves) {
    streams_.clear();
    for (const auto& [stream, scanned] : leaves) {
      StreamState state;
      state.metas.reserve(scanned.size());
      for (const auto& [index, meta] : scanned) {
        // A missing or torn leaf ends the prefix.
        if (index != state.metas.size() || !meta.has_value()) break;
        if (index == 0) {
          state.base_epoch = meta->epoch;
        } else if (meta->epoch != state.base_epoch + index) {
          break;  // Epochs must stay contiguous.
        }
        state.metas.push_back(*meta);
      }
      if (!state.metas.empty()) streams_[stream] = std::move(state);
    }
    return streams_.size();
  }

  // Seals one epoch of `stream`. Epochs of a stream must be sealed in
  // order: the first seal fixes the base epoch, every later one must be
  // exactly one past the previous (gaps would make range decomposition
  // ambiguous). The leaf is written before the store learns of the
  // epoch, so a failed leaf write changes nothing and the same epoch can
  // be retried. The leaf and each completed node are written through
  // the cache (see the header comment). Returns false when a storage
  // write failed to complete — after a failed node write the store
  // object is stale; recover with a fresh Open().
  bool Seal(uint64_t stream, const S& summary, EpochMeta meta) {
    auto it = streams_.find(stream);
    const uint64_t index = it == streams_.end() ? 0 : it->second.metas.size();
    if (index != 0) {
      MERGEABLE_CHECK_MSG(meta.epoch == it->second.base_epoch + index,
                          "epochs must be sealed contiguously in order");
    }
    if (!WriteLeaf(stream, index, summary, meta)) return false;
    StreamState& state = streams_[stream];
    if (index == 0) state.base_epoch = meta.epoch;
    state.metas.push_back(meta);
    epochs_sealed_.fetch_add(1, std::memory_order_relaxed);
    for (const DyadicNode& node : NodesCompletedBySeal(index)) {
      if (!BuildAndWriteNode(stream, node)) return false;
    }
    return true;
  }

  // Seals a coordinator epoch result (the common producer). Returns
  // false when the result carries no summary (crashed / zero coverage)
  // or a storage write failed. `expected_total_n` as in AccountErrors.
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
        options_.epsilon, result.shards_total, result.shards_received,
        meta.n, expected_total_n);
    meta.lost_mass = accounting.lost_mass;
    meta.lost_mass_estimated = accounting.lost_mass_estimated;
    return Seal(stream, *result.summary, meta);
  }

  // Seals many consecutive epochs at once, building each completed tree
  // level's nodes in parallel on the store's pool (the merges of one
  // level are independent; levels are barriers). Byte-identical to
  // sealing the same epochs one by one — only the wall clock differs.
  bool SealBatch(uint64_t stream,
                 std::vector<std::pair<S, EpochMeta>> epochs) {
    if (epochs.empty()) return true;
    StreamState& state = streams_[stream];
    const uint64_t first_index = state.metas.size();
    for (size_t i = 0; i < epochs.size(); ++i) {
      const uint64_t index = first_index + i;
      EpochMeta& meta = epochs[i].second;
      if (index == 0 && i == 0) {
        state.base_epoch = meta.epoch;
      } else {
        MERGEABLE_CHECK_MSG(meta.epoch == state.base_epoch + index,
                            "epochs must be sealed contiguously in order");
      }
      if (!WriteLeaf(stream, index, epochs[i].first, meta)) return false;
      state.metas.push_back(meta);
      epochs_sealed_.fetch_add(1, std::memory_order_relaxed);
    }
    // Completed internal nodes, grouped by level. Building level by
    // level keeps every node's children durable before it is computed.
    std::map<uint32_t, std::vector<DyadicNode>> by_level;
    for (size_t i = 0; i < epochs.size(); ++i) {
      for (const DyadicNode& node : NodesCompletedBySeal(first_index + i)) {
        by_level[node.level].push_back(node);
      }
    }
    for (const auto& [level, nodes] : by_level) {
      std::vector<std::optional<std::vector<uint8_t>>> payloads(nodes.size());
      pool_.ParallelFor(nodes.size(), [&](size_t i) {
        payloads[i] = ComputeNodePayload(stream, nodes[i], nullptr);
      });
      for (size_t i = 0; i < nodes.size(); ++i) {
        // A node over a lost leaf is left unwritten, as in Seal.
        if (!payloads[i].has_value()) continue;
        if (!WriteThroughNode(stream, nodes[i], std::move(*payloads[i]))) {
          return false;
        }
      }
    }
    return true;
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

  // Answers the range query [t1, t2] (absolute epoch numbers, both
  // inclusive): the canonical payload of the merge of every sealed
  // summary in the range, the epsilon report over the covered epochs,
  // and what the answer cost. std::nullopt when the stream is unknown,
  // the range is not fully sealed, or a leaf it needs is lost — a
  // serving layer refuses bad queries instead of aborting on them.
  std::optional<RangeOutcome> QueryRangePayload(uint64_t stream,
                                                uint64_t t1, uint64_t t2) {
    auto it = streams_.find(stream);
    if (it == streams_.end()) return std::nullopt;
    const StreamState& state = it->second;
    if (t1 > t2 || t1 < state.base_epoch ||
        t2 >= state.base_epoch + state.metas.size()) {
      return std::nullopt;
    }
    const uint64_t lo = t1 - state.base_epoch;
    const uint64_t hi = t2 - state.base_epoch;

    RangeOutcome outcome;
    outcome.eps =
        AccumulateEpsilon(state.metas, lo, hi, options_.epsilon);
    QueryStats& stats = outcome.stats;
    bool built = false;
    const CacheKey range_key{stream, CacheEntryKind::kRangeResult, lo, hi};
    outcome.payload = cache_.GetOrBuild(range_key, [&] {
      built = true;
      return MergeCover(stream, lo, hi, &stats);
    });
    if (outcome.payload == nullptr) return std::nullopt;
    stats.range_cache_hit = !built;
    outcome.covered_hi = t2;
    return outcome;
  }

  // Deadline-bounded variant: answers [t1, t2] within
  // `deadline.budget_ms` of virtual time, charging
  // `deadline.cost_per_node_ms` per covering node. Nodes are merged in
  // epoch order; when the budget runs out mid-cover the answer is the
  // merge of the prefix processed so far, with every skipped epoch's
  // mass folded into the epsilon report (AccumulateEpsilonPartial) —
  // a partial answer with an honest, wider bound instead of a stalled
  // query. At least one covering node is always merged: an answer of
  // nothing serves nobody, and one node is the floor any deadline must
  // afford. Partial answers bypass the range cache (they are not the
  // range's value); full answers under a generous deadline share the
  // cached path with QueryRangePayload.
  std::optional<RangeOutcome> QueryRangePayloadBounded(
      uint64_t stream, uint64_t t1, uint64_t t2, QueryDeadline deadline) {
    const uint64_t cost = deadline.cost_per_node_ms;
    auto it = streams_.find(stream);
    if (it == streams_.end()) return std::nullopt;
    const StreamState& state = it->second;
    if (t1 > t2 || t1 < state.base_epoch ||
        t2 >= state.base_epoch + state.metas.size()) {
      return std::nullopt;
    }
    const uint64_t lo = t1 - state.base_epoch;
    const uint64_t hi = t2 - state.base_epoch;
    const std::vector<DyadicNode> cover = DyadicCover(lo, hi);
    // Every node affordable: identical to the unbounded (cached) path.
    if (cost == 0 ||
        cover.size() <= deadline.budget_ms / cost) {
      return QueryRangePayload(stream, t1, t2);
    }

    RangeOutcome outcome;
    outcome.partial = true;
    QueryStats& stats = outcome.stats;
    uint64_t spent = 0;
    std::optional<S> merged;
    uint64_t covered_hi_index = lo;
    for (const DyadicNode& node : cover) {
      if (merged.has_value() && spent + cost > deadline.budget_ms) break;
      spent += cost;
      ++stats.nodes_merged;
      const MergedSummaryCache::Payload bytes =
          NodePayload(stream, node, &stats);
      if (bytes == nullptr) return std::nullopt;
      S part = DecodeSummaryOrDie<S>(*bytes);
      if (merged.has_value()) {
        CanonicalMergeInto(*merged, part);
        ++stats.merges_performed;
      } else {
        merged = std::move(part);
      }
      covered_hi_index = node.last();
    }
    outcome.covered_hi = state.base_epoch + covered_hi_index;
    outcome.eps = AccumulateEpsilonPartial(state.metas, lo, hi,
                                           covered_hi_index,
                                           options_.epsilon);
    outcome.payload = std::make_shared<const std::vector<uint8_t>>(
        EncodeSummary<S>(*merged));
    return outcome;
  }

  const StoreOptions& options() const { return options_; }
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

  std::string NodeFileName(uint64_t stream, const DyadicNode& node) const {
    return mergeable::NodeFileName(options_.prefix, stream, node.level,
                                   node.index);
  }

  static CacheKey NodeKey(uint64_t stream, const DyadicNode& node) {
    return CacheKey{stream, CacheEntryKind::kTreeNode, node.level,
                    node.index};
  }

  // Writes the leaf record, then puts the leaf's payload into the cache
  // once storage holds it.
  bool WriteLeaf(uint64_t stream, uint64_t index, const S& summary,
                 const EpochMeta& meta) {
    std::vector<uint8_t> payload = EncodeSummary(summary);
    const std::vector<uint8_t> record =
        EncodeEpochRecord(meta, EncodeTaggedPayload(kTag, payload));
    bytes_written_.fetch_add(record.size(), std::memory_order_relaxed);
    const DyadicNode leaf{0, index};
    if (!storage_->Rewrite(NodeFileName(stream, leaf), record)) return false;
    cache_.Put(NodeKey(stream, leaf), std::move(payload));
    return true;
  }

  bool WriteNodePayload(uint64_t stream, const DyadicNode& node,
                        const std::vector<uint8_t>& payload) {
    const std::vector<uint8_t> tagged = EncodeTaggedPayload(kTag, payload);
    bytes_written_.fetch_add(tagged.size(), std::memory_order_relaxed);
    return storage_->Rewrite(NodeFileName(stream, node), tagged);
  }

  // A node a seal just built: counted, written, then put into the cache
  // once storage holds it, so the next level up folds it from there.
  bool WriteThroughNode(uint64_t stream, const DyadicNode& node,
                        std::vector<uint8_t> payload) {
    nodes_built_.fetch_add(1, std::memory_order_relaxed);
    node_merges_.fetch_add(1, std::memory_order_relaxed);
    if (!WriteNodePayload(stream, node, payload)) return false;
    cache_.Put(NodeKey(stream, node), std::move(payload));
    return true;
  }

  // A node over a lost leaf is left unwritten: the seal itself stands,
  // and a later read of the node meets the loss again.
  bool BuildAndWriteNode(uint64_t stream, const DyadicNode& node) {
    std::optional<std::vector<uint8_t>> payload =
        ComputeNodePayload(stream, node, nullptr);
    if (!payload.has_value()) return true;
    return WriteThroughNode(stream, node, std::move(*payload));
  }

  // The node's canonical payload, computed from its children: the
  // defining equation node = canonical(merge(left, right)). Pure — no
  // storage writes, no counter updates — so batch sealing can run many
  // of these concurrently. std::nullopt when a leaf under it is lost.
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
    S merged = DecodeSummaryOrDie<S>(*left_bytes);
    CanonicalMergeInto(merged, DecodeSummaryOrDie<S>(*right_bytes));
    return EncodeSummary<S>(merged);
  }

  // The node's canonical payload via the cache: resident bytes, else
  // the storage file, else (for a missing or torn internal node) a
  // deterministic rebuild from the children. nullptr when a leaf it
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
    const std::optional<std::vector<uint8_t>> bytes =
        storage_->Read(NodeFileName(stream, node));
    if (bytes.has_value()) {
      bytes_read_.fetch_add(bytes->size(), std::memory_order_relaxed);
      if (query_stats != nullptr) query_stats->bytes_read += bytes->size();
      if (node.level == 0) {
        const std::optional<LeafRecordView> leaf =
            ViewLeafRecord(bytes->data(), bytes->size(), kTag);
        if (leaf.has_value()) {
          return std::vector<uint8_t>(leaf->summary,
                                      leaf->summary + leaf->summary_size);
        }
      } else {
        const std::optional<TaggedPayloadView> tagged =
            ViewTaggedPayload(bytes->data(), bytes->size());
        if (tagged.has_value() && tagged->tag == kTag) {
          return std::vector<uint8_t>(tagged->payload,
                                      tagged->payload + tagged->payload_size);
        }
      }
    }
    // Missing or torn. A leaf cannot be reconstructed — Open() only
    // admits epochs whose leaf records decode, so reaching this for a
    // leaf means the storage lost it underneath us: report it and fail
    // the build. An internal node is rebuilt from its children,
    // byte-identically.
    if (node.level == 0) {
      if (on_leaf_lost_) on_leaf_lost_(stream, node.index);
      return std::nullopt;
    }
    std::optional<std::vector<uint8_t>> payload =
        ComputeNodePayload(stream, node, query_stats);
    if (!payload.has_value()) return std::nullopt;
    nodes_built_.fetch_add(1, std::memory_order_relaxed);
    node_merges_.fetch_add(1, std::memory_order_relaxed);
    if (query_stats != nullptr) ++query_stats->merges_performed;
    // Re-persist so the next restart finds it intact; a failed write
    // only costs a future rebuild.
    (void)WriteNodePayload(stream, node, *payload);
    return payload;
  }

  // Materializes the covering nodes of [lo, hi] and folds them into one
  // canonical payload through the generic merge driver: a balanced
  // canonical reduction, parallel across nodes when the store has
  // threads, byte-identical for every thread count. std::nullopt when
  // a covering node cannot be materialized (a leaf under it is lost).
  std::optional<std::vector<uint8_t>> MergeCover(uint64_t stream,
                                                 uint64_t lo, uint64_t hi,
                                                 QueryStats* stats) {
    const std::vector<DyadicNode> cover = DyadicCover(lo, hi);
    stats->nodes_merged = cover.size();
    std::vector<MergedSummaryCache::Payload> payloads;
    payloads.reserve(cover.size());
    for (const DyadicNode& node : cover) {
      payloads.push_back(NodePayload(stream, node, stats));
      if (payloads.back() == nullptr) return std::nullopt;
    }
    // One node (a length-1 or aligned power-of-two range): its stored
    // payload already is the canonical answer.
    if (payloads.size() == 1) return *payloads.front();
    std::vector<S> parts;
    parts.reserve(payloads.size());
    for (const MergedSummaryCache::Payload& payload : payloads) {
      parts.push_back(DecodeSummaryOrDie<S>(*payload));
    }
    std::atomic<uint64_t> merges{0};
    const auto merge_fn = [&merges](S& into, const S& from) {
      CanonicalMergeInto(into, from);
      merges.fetch_add(1, std::memory_order_relaxed);
    };
    S merged =
        options_.num_threads > 1
            ? ParallelMergeAllWith(std::move(parts), pool_, merge_fn)
            : MergeAllWith(std::move(parts), MergeTopology::kBalancedTree,
                           merge_fn);
    stats->merges_performed += merges.load(std::memory_order_relaxed);
    return EncodeSummary<S>(merged);
  }

  Storage* storage_;
  StoreOptions options_;
  LeafLossHandler on_leaf_lost_;
  MergedSummaryCache cache_;
  ThreadPool pool_;
  std::map<uint64_t, StreamState> streams_;

  // Cumulative counters; atomic because queries (and their lazy node
  // rebuilds) may run concurrently.
  std::atomic<uint64_t> epochs_sealed_{0};
  std::atomic<uint64_t> nodes_built_{0};
  std::atomic<uint64_t> node_merges_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_SUMMARY_STORE_H_
