// KMV (k minimum values) distinct-count sketch (Bar-Yossef et al.).
//
// Keeps the k smallest hash values seen; if the k-th smallest is v (as a
// fraction of the hash range), the distinct count is about (k - 1) / v.
// The sketch of a union is the k smallest of the combined sets, so
// merging is exact — another member of the paper's trivially mergeable
// class (R6). Relative error is about 1 / sqrt(k).

#ifndef MERGEABLE_SKETCH_KMV_H_
#define MERGEABLE_SKETCH_KMV_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

class KmvSketch {
 public:
  // Requires k >= 2.
  KmvSketch(int k, uint64_t seed);

  void Add(uint64_t item);

  // Estimated number of distinct items added.
  double EstimateDistinct() const;

  // Keeps the k smallest hash values of the union. Requires identical k
  // and seed.
  void Merge(const KmvSketch& other);

  // Serializes the sketch; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<KmvSketch> DecodeFrom(ByteReader& reader);

  // Puts the summary in canonical form in place: afterwards it is
  // indistinguishable from DecodeFrom(EncodeTo(*this)) — equal bytes and equal
  // behavior under further updates and merges. Re-lays the heap out exactly as
  // the decoder does (sorted, then heapified).
  void Canonicalize();

  int k() const { return k_; }
  size_t size() const { return heap_.size(); }

 private:
  void Insert(uint64_t hash);

  int k_;
  uint64_t seed_;
  // Max-heap of the k smallest hash values seen (root = current k-th
  // smallest). Duplicates are excluded.
  std::vector<uint64_t> heap_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_KMV_H_
