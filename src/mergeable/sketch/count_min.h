// Count-Min sketch (Cormode & Muthukrishnan).
//
// A linear sketch: the summary is a fixed linear function of the input
// frequency vector, so merging is exact component-wise addition — the
// paper's "trivially mergeable" class (result R6). With width w =
// ceil(e / epsilon) and depth d = ceil(ln(1 / delta)),
//
//     f(x) <= Estimate(x) <= f(x) + epsilon * n
//
// holds for each item with probability at least 1 - delta.
//
// The conservative-update variant (kConservative) only raises the
// counters that must rise; it is strictly tighter while streaming but is
// *not* a linear function of the input, so merged conservative sketches
// remain valid upper bounds yet lose the single-pass tightness. The E5
// benchmark quantifies this trade-off.

#ifndef MERGEABLE_SKETCH_COUNT_MIN_H_
#define MERGEABLE_SKETCH_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/util/bytes.h"
#include "mergeable/util/hash.h"

namespace mergeable {

enum class CountMinUpdate {
  kPlain,
  kConservative,
};

class CountMinSketch {
 public:
  // A sketch with `depth` rows of `width` counters. Row hash functions
  // are 2-universal, derived deterministically from `seed`. Requires
  // depth >= 1, width >= 1.
  CountMinSketch(int depth, int width, uint64_t seed,
                 CountMinUpdate update = CountMinUpdate::kPlain);

  // Sizes the sketch for error <= epsilon * n with probability 1 - delta
  // per query. Requires epsilon, delta in (0, 1).
  static CountMinSketch ForEpsilonDelta(double epsilon, double delta,
                                        uint64_t seed,
                                        CountMinUpdate update =
                                            CountMinUpdate::kPlain);

  void Update(uint64_t item, uint64_t weight = 1);

  // Processes `count` unit-weight items. Identical results to calling
  // Update on each (plain updates commute); the batch form walks the
  // counter matrix row-major over blocks of items with hoisted hash
  // state and prefetched counter lines, so ingestion is bound by memory
  // bandwidth instead of per-item latency. Conservative sketches fall
  // back to the per-item loop (their updates are order-dependent).
  void UpdateBatch(const uint64_t* items, size_t count);

  // Upper bound on f(item) (exact lower bound f(item) <= Estimate always
  // holds; the epsilon bound holds with probability 1 - delta).
  uint64_t Estimate(uint64_t item) const;

  // Component-wise addition. Requires identical shape and seed.
  void Merge(const CountMinSketch& other);

  // Serializes the sketch (hash functions are rebuilt from the seed):
  // "CM02", depth, width, update rule, seed and n, then the counters as
  // one packed counter array (ByteWriter::PutCounterArray).
  void EncodeTo(ByteWriter& writer) const;
  static std::optional<CountMinSketch> DecodeFrom(ByteReader& reader);

  // The byte path (store/summary_store.h, MergePayloadInto): a payload
  // merged from its wire bytes, without decoding it into a sketch.
  //
  // ValidateEncoded is true exactly when DecodeFrom accepts `bytes` and
  // consumes all of them; it reads the header and the cell width only
  // and allocates nothing. MergeEncoded adds the counters in place,
  // widening each cell, and leaves the state, and so the bytes, that
  // Merge(*DecodeFrom(bytes)) would; the payload must be valid and of
  // this sketch's shape (another shape aborts, as Merge does).
  static bool ValidateEncoded(const uint8_t* bytes, size_t size);
  void MergeEncoded(const uint8_t* bytes, size_t size);

  // What Merge requires to be equal: depth, width and seed. EncodedShape
  // reads it from the header of a payload ValidateEncoded accepted.
  struct Shape {
    uint32_t depth = 0;
    uint32_t width = 0;
    uint64_t seed = 0;
    bool operator==(const Shape&) const = default;
  };
  Shape shape() const;
  static Shape EncodedShape(const uint8_t* bytes, size_t size);

  // Canonical form in place (see WireSummary in core/concepts.h).
  // Every field is on the wire, so the summary is always canonical.
  void Canonicalize() {}

  uint64_t n() const { return n_; }
  int depth() const { return depth_; }
  int width() const { return width_; }
  uint64_t seed() const { return seed_; }

  // One 2-universal hash per row, derived from `seed`. ElasticCountMin
  // builds its rows with it, so a single-level elastic sketch buckets
  // items exactly as a CountMinSketch of its depth, width and seed.
  static std::vector<PolynomialHash> MakeRowHashes(int depth, uint64_t seed);

 private:
  // `counters` is the decoded row-major array, or empty for a zeroed
  // sketch.
  CountMinSketch(int depth, int width, uint64_t seed, CountMinUpdate update,
                 std::vector<uint64_t> counters);

  uint64_t Bucket(int row, uint64_t item) const {
    return hashes_[static_cast<size_t>(row)].Bounded(
        item, static_cast<uint64_t>(width_));
  }

  int depth_;
  int width_;
  uint64_t seed_;
  CountMinUpdate update_;
  uint64_t n_ = 0;
  std::vector<PolynomialHash> hashes_;  // One 2-universal hash per row.
  std::vector<uint64_t> counters_;      // Row-major depth_ x width_.
};

}  // namespace mergeable

#endif  // MERGEABLE_SKETCH_COUNT_MIN_H_
