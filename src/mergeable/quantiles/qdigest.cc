#include "mergeable/quantiles/qdigest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "mergeable/util/check.h"

namespace mergeable {
namespace {

// Depth of node id v in the heap numbering (root = 1 at depth 0).
int DepthOf(uint64_t id) { return 63 - std::countl_zero(id); }

}  // namespace

QDigest::QDigest(int log_universe, uint64_t k)
    : log_universe_(log_universe), k_(k) {
  MERGEABLE_CHECK_MSG(log_universe >= 1 && log_universe <= 32,
                      "log_universe must be in [1, 32]");
  MERGEABLE_CHECK_MSG(k >= 1, "k must be >= 1");
}

QDigest QDigest::ForEpsilon(double epsilon, int log_universe) {
  MERGEABLE_CHECK_MSG(epsilon > 0.0 && epsilon <= 1.0,
                      "epsilon must be in (0, 1]");
  const auto k = static_cast<uint64_t>(
      std::ceil(static_cast<double>(log_universe) / epsilon));
  return QDigest(log_universe, k);
}

void QDigest::Update(uint64_t value, uint64_t weight) {
  MERGEABLE_CHECK_MSG(value < (uint64_t{1} << log_universe_),
                      "value outside the digest universe");
  if (weight == 0) return;
  nodes_[LeafId(value)] += weight;
  n_ += weight;
  pending_ += weight;
  // Amortize: compress once enough new weight arrived to change the
  // threshold materially, or if the digest grew far past its bound.
  if (pending_ >= n_ / k_ + 1 || nodes_.size() > 8 * k_) {
    Compress();
    pending_ = 0;
  }
}

void QDigest::Merge(const QDigest& other) {
  MERGEABLE_CHECK_MSG(
      log_universe_ == other.log_universe_ && k_ == other.k_,
      "QDigest merge requires identical universe and k");
  for (const auto& [id, count] : other.nodes_) nodes_[id] += count;
  n_ += other.n_;
  Compress();
  pending_ = 0;
}

void QDigest::Compress() {
  const uint64_t threshold = n_ / k_;
  if (threshold == 0) return;

  // Bottom-up sweep: deeper nodes have larger ids under heap numbering.
  std::vector<uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, count] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), std::greater<uint64_t>());

  for (uint64_t id : ids) {
    if (id == 1) continue;  // Root never folds further.
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) continue;  // Folded as a sibling already.
    const uint64_t sibling = id ^ 1;
    const uint64_t parent = id >> 1;
    const auto sibling_it = nodes_.find(sibling);
    const uint64_t sibling_count =
        sibling_it == nodes_.end() ? 0 : sibling_it->second;
    const auto parent_it = nodes_.find(parent);
    const uint64_t parent_count =
        parent_it == nodes_.end() ? 0 : parent_it->second;
    if (it->second + sibling_count + parent_count <= threshold) {
      nodes_[parent] = parent_count + it->second + sibling_count;
      nodes_.erase(id);
      if (sibling_it != nodes_.end()) nodes_.erase(sibling);
    }
  }
}

uint64_t QDigest::Rank(uint64_t x) const {
  // below = weight certainly <= x; straddle = weight of nodes whose
  // interval contains x with room on both sides (the uncertainty).
  uint64_t below = 0;
  uint64_t straddle = 0;
  const int leaf_depth = log_universe_;
  for (const auto& [id, count] : nodes_) {
    const int depth = DepthOf(id);
    const int shift = leaf_depth - depth;
    const uint64_t lo = (id - (uint64_t{1} << depth)) << shift;
    const uint64_t hi = lo + (uint64_t{1} << shift) - 1;
    if (hi <= x) {
      below += count;
    } else if (lo <= x) {
      straddle += count;
    }
  }
  return below + straddle / 2;
}

uint64_t QDigest::Quantile(double phi) const {
  MERGEABLE_CHECK_MSG(n_ > 0, "Quantile of empty digest");
  // Standard q-digest quantile: nodes in increasing order of interval
  // upper end (ties: smaller intervals first); prefix-sum to the target.
  struct Entry {
    uint64_t hi = 0;
    uint64_t lo = 0;
    uint64_t count = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(nodes_.size());
  const int leaf_depth = log_universe_;
  for (const auto& [id, count] : nodes_) {
    const int depth = DepthOf(id);
    const int shift = leaf_depth - depth;
    const uint64_t lo = (id - (uint64_t{1} << depth)) << shift;
    const uint64_t hi = lo + (uint64_t{1} << shift) - 1;
    entries.push_back(Entry{hi, lo, count});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo > b.lo;  // Smaller (deeper) intervals first.
  });

  auto target = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(n_)));
  if (target < 1) target = 1;
  uint64_t seen = 0;
  for (const Entry& entry : entries) {
    seen += entry.count;
    if (seen >= target) return entry.hi;
  }
  return entries.back().hi;
}

namespace {
constexpr uint32_t kQDigestMagic = 0x31304451;  // "QD01"
}  // namespace

void QDigest::Canonicalize() {
  // DecodeFrom fills a fresh map in id order and has nothing pending;
  // both the map's iteration order and the pending count steer Compress.
  std::vector<std::pair<uint64_t, uint64_t>> nodes(nodes_.begin(),
                                                   nodes_.end());
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<uint64_t, uint64_t> fresh;
  fresh.reserve(nodes.size());
  for (const auto& [id, count] : nodes) fresh[id] = count;
  nodes_ = std::move(fresh);
  pending_ = 0;
}

void QDigest::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kQDigestMagic);
  writer.PutU32(static_cast<uint32_t>(log_universe_));
  writer.PutU64(k_);
  writer.PutU64(n_);
  writer.PutU32(static_cast<uint32_t>(nodes_.size()));
  // Canonical wire order: the node map's iteration order depends on its
  // insertion history, so sort by node id to make equal digests encode
  // to equal bytes (encode-decode-encode is a fixed point).
  std::vector<std::pair<uint64_t, uint64_t>> nodes(nodes_.begin(),
                                                   nodes_.end());
  std::sort(nodes.begin(), nodes.end());
  for (const auto& [id, count] : nodes) {
    writer.PutU64(id);
    writer.PutU64(count);
  }
}

std::optional<QDigest> QDigest::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t log_universe = 0;
  uint64_t k = 0;
  uint64_t n = 0;
  uint32_t count = 0;
  if (!reader.GetU32(&magic) || magic != kQDigestMagic) return std::nullopt;
  if (!reader.GetU32(&log_universe) || log_universe < 1 ||
      log_universe > 32) {
    return std::nullopt;
  }
  if (!reader.GetU64(&k) || k == 0 || !reader.GetU64(&n) ||
      !reader.GetU32(&count)) {
    return std::nullopt;
  }
  // Each node needs 16 encoded bytes; reject counts the input cannot
  // back before sizing the map.
  if (static_cast<uint64_t>(count) * 16 > reader.remaining()) {
    return std::nullopt;
  }
  QDigest digest(static_cast<int>(log_universe), k);
  digest.nodes_.reserve(count);
  const uint64_t max_id = (uint64_t{1} << (log_universe + 1));
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    uint64_t node_count = 0;
    if (!reader.GetU64(&id) || !reader.GetU64(&node_count)) {
      return std::nullopt;
    }
    if (id < 1 || id >= max_id || node_count == 0) return std::nullopt;
    if (digest.nodes_.count(id) != 0) return std::nullopt;
    // Checked before the add, so the running sum cannot wrap past n.
    if (node_count > n - total) return std::nullopt;
    digest.nodes_[id] = node_count;
    total += node_count;
  }
  if (total != n || !reader.Exhausted()) return std::nullopt;
  digest.n_ = n;
  return digest;
}

}  // namespace mergeable
