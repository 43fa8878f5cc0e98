// The q-digest quantile summary (Shrivastava, Buragohain, Agrawal,
// Suri), for integer universes.
//
// q-digest predates Agarwal et al. and is the mergeable quantile
// summary the paper's introduction measures itself against: it is fully
// and deterministically mergeable, but its size O((1/eps) * log u)
// depends on the universe size u, whereas the paper's randomized
// summary (R4, mergeable_quantiles.h) is universe-free. Benchmark E4
// compares them.
//
// The digest is a subset of the nodes of the complete binary tree over
// [0, u): each node holds a count, and the invariant (for non-leaf,
// non-root nodes) is
//
//     count(v) + count(parent) + count(sibling) > floor(n / k)
//
// for retained nodes, while every node satisfies
// count(v) <= floor(n / k) unless v is a leaf. Rank queries are
// answered to within (log2 u) * n / k, so k = ceil(log2(u) / eps)
// gives rank error <= eps * n.

#ifndef MERGEABLE_QUANTILES_QDIGEST_H_
#define MERGEABLE_QUANTILES_QDIGEST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

class QDigest {
 public:
  // A digest over the universe [0, 2^log_universe) with compression
  // parameter k (larger k = more accurate, more space). Requires
  // 1 <= log_universe <= 32 and k >= 1.
  QDigest(int log_universe, uint64_t k);

  // A digest with rank error <= epsilon * n over [0, 2^log_universe).
  static QDigest ForEpsilon(double epsilon, int log_universe);

  // Adds `weight` occurrences of `value`. Requires value < 2^log_universe.
  void Update(uint64_t value, uint64_t weight = 1);

  // Merges `other` into this digest (node-wise addition followed by
  // re-compression — fully mergeable, deterministic). Requires identical
  // universe and k.
  void Merge(const QDigest& other);

  // Estimated Rank(x) = |{ y : y <= x }|, within (log2 u) * n / k.
  uint64_t Rank(uint64_t x) const;

  // A value whose rank is within the error bound of ceil(phi * n).
  // Requires n() > 0.
  uint64_t Quantile(double phi) const;

  uint64_t n() const { return n_; }
  int log_universe() const { return log_universe_; }
  uint64_t k() const { return k_; }

  // Number of stored tree nodes.
  size_t size() const { return nodes_.size(); }

  // Worst-case rank error at the current n.
  uint64_t ErrorBound() const {
    return static_cast<uint64_t>(log_universe_) * (n_ / k_);
  }

  // Serializes the digest; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<QDigest> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Rebuilds the node map in wire
  // (id) order and clears the pending-compress count.
  void Canonicalize();

 private:
  // Node ids follow the standard heap numbering of the complete binary
  // tree over the universe: root = 1, children of v are 2v and 2v+1;
  // leaf for value x has id 2^log_universe + x.

  uint64_t LeafId(uint64_t value) const {
    return (uint64_t{1} << log_universe_) + value;
  }

  // Restores the q-digest invariant by walking nodes bottom-up and
  // folding light sibling pairs into their parent.
  void Compress();

  int log_universe_;
  uint64_t k_;
  uint64_t n_ = 0;
  // Pending updates since the last compression (amortizes Compress).
  uint64_t pending_ = 0;
  std::unordered_map<uint64_t, uint64_t> nodes_;  // id -> count.
};

}  // namespace mergeable

#endif  // MERGEABLE_QUANTILES_QDIGEST_H_
