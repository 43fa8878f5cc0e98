// Hash functions used by the sketching code and the checksummed frames.
//
// Three pieces are provided:
//   * MixHash       — a fast 64-bit finalizer-style hash for hash tables
//                     and for deriving per-row seeds. Not independent in
//                     any formal sense; good avalanche behaviour.
//   * ChecksumBytes — the word-chaining kernel behind FrameChecksum
//                     (wire.h), the one checksum of every frame and
//                     segment record. Not cryptographic.
//   * PolynomialHash — a k-universal (k-wise independent) hash family over
//                     the Mersenne prime p = 2^61 - 1, used where formal
//                     independence matters (AMS requires 4-wise, Count-Min
//                     rows require 2-wise).

#ifndef MERGEABLE_UTIL_HASH_H_
#define MERGEABLE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mergeable/util/check.h"

namespace mergeable {

// Mixes the bits of `x` (a bijection on 64-bit values). Based on the
// MurmurHash3/SplitMix64 finalizer. Inline so that independent chains,
// such as the checksum lanes, overlap in the pipeline.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Mixes `x` with a salt, giving a cheap family of hash functions indexed
// by `seed`. For a fixed `seed` it is a bijection in `x`, and for a
// fixed `x` a bijection in `seed`.
inline uint64_t MixHash(uint64_t x, uint64_t seed) {
  return MixHash(x ^ (seed + 0x9e3779b97f4a7c15ULL));
}

// Inputs of at least this many bytes are chained in four lanes.
inline constexpr size_t kChecksumLaneMinBytes = 64;

// Chains bytes [data, data + size) into the running checksum state `h`
// and returns the final value. Words are the input's 8-byte little-endian
// words; the tail is the last size % 8 bytes read little-endian into a
// zero-padded word.
//
//   size < 64:  h = MixHash(word, h) for every word in order, then
//               MixHash(tail, h) — one serial chain.
//   size >= 64: four lanes, lane[k] = MixHash(k, h) for k = 0..3. Each
//               32-byte block feeds its word k to lane k:
//               lane[k] = MixHash(word, lane[k]). Then the lanes fold
//               into h in order, h = MixHash(lane[k], h), and the 0-3
//               words after the last whole block and the tail finish
//               the chain as in the serial form.
//
// Every step is a bijection in the word it consumes and in the state it
// extends, so changing any one word (any single-bit flip) always changes
// the result. Callers mix the input length into `h` first, so dropping
// or appending bytes changes it too. The lanes are independent chains,
// so the long form is not bound by the latency of one serial MixHash
// chain: it runs about 3.4x faster (EXPERIMENTS, P1 BM_Checksum).
uint64_t ChecksumBytes(uint64_t h, const uint8_t* data, size_t size);

// A k-wise independent hash family: h(x) = (sum_i a_i x^i mod p) with
// p = 2^61 - 1 and random coefficients a_0..a_{k-1}. Evaluation uses
// Horner's rule with 128-bit intermediate products.
class PolynomialHash {
 public:
  static constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

  // Draws the `degree` coefficients from `seed` (degree == k gives a
  // k-wise independent family). Requires degree >= 1. The leading
  // coefficient is forced nonzero so the polynomial has full degree.
  PolynomialHash(int degree, uint64_t seed);

  // Returns h(x) in [0, kPrime).
  uint64_t operator()(uint64_t x) const;

  // Returns h(x) reduced to [0, bound). `bound` must be positive.
  uint64_t Bounded(uint64_t x, uint64_t bound) const {
    MERGEABLE_DCHECK(bound > 0);
    return (*this)(x) % bound;
  }

  // Writes Bounded(items[i], bound) for i in [0, n) into `out`. Bit-for-
  // bit the same results as the per-item call; the batch form hoists the
  // coefficient loads out of the loop and flattens Horner to a single
  // multiply-add per item for the common degree-2 (Count-Min / bucket)
  // case, which is where the sketch ingestion hot loops live.
  void BoundedBatch(const uint64_t* items, size_t n, uint64_t bound,
                    uint64_t* out) const;

  // Returns +1 or -1 from the low bit of h(x); with degree >= 4 these
  // signs are 4-wise independent, as required by the AMS estimator.
  int Sign(uint64_t x) const { return ((*this)(x)&1) != 0 ? 1 : -1; }

  int degree() const { return static_cast<int>(coefficients_.size()); }

 private:
  std::vector<uint64_t> coefficients_;  // a_0 first.
};

}  // namespace mergeable

#endif  // MERGEABLE_UTIL_HASH_H_
