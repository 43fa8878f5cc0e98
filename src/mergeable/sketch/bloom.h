// Bloom filter: approximate set membership with one-sided error.
//
// Linear over GF(2): merging two filters built with the same parameters
// is a bitwise OR (result R6). No false negatives ever; the false
// positive rate after inserting n items into m bits with k hashes is
// about (1 - e^{-kn/m})^k.

#ifndef MERGEABLE_SKETCH_BLOOM_H_
#define MERGEABLE_SKETCH_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"

namespace mergeable {

class BloomFilter {
 public:
  // A filter of `bits` bits probed by `hashes` hash functions derived
  // from `seed`. Requires bits >= 8 and hashes >= 1.
  BloomFilter(size_t bits, int hashes, uint64_t seed);

  // Sizes the filter for an expected false positive rate `fpr` at
  // `expected_items` insertions. Requires fpr in (0, 1).
  static BloomFilter ForExpectedItems(uint64_t expected_items, double fpr,
                                      uint64_t seed);

  void Add(uint64_t item);

  // Adds `count` items; identical bit pattern to per-item Add. The batch
  // form computes each item's two base hashes once (per-item Add
  // recomputes them for every probe), and prefetches the probed words a
  // few items ahead.
  void AddBatch(const uint64_t* items, size_t count);

  // Alias so the sketches share one batched-ingestion spelling.
  void UpdateBatch(const uint64_t* items, size_t count) {
    AddBatch(items, count);
  }

  // True if `item` may have been added; false means definitely not.
  bool MayContain(uint64_t item) const;

  // Bitwise OR. Requires identical size, hash count and seed.
  void Merge(const BloomFilter& other);

  // Serializes the filter; decoding returns std::nullopt on malformed
  // input.
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<BloomFilter> DecodeFrom(ByteReader& reader);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

  // Expected false positive rate at the current fill level, from the
  // fraction of set bits.
  double EstimatedFpr() const;

  size_t bits() const { return bits_; }
  int hashes() const { return hashes_; }
  uint64_t added() const { return added_; }

 private:
  // `words` is the decoded bit array, or empty for a cleared filter.
  BloomFilter(size_t bits, int hashes, uint64_t seed,
              std::vector<uint64_t> words);

  uint64_t BitIndex(int hash, uint64_t item) const;

  size_t bits_;
  int hashes_;
  uint64_t seed_;
  uint64_t added_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_BLOOM_H_
