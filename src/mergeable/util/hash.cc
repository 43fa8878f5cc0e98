#include "mergeable/util/hash.h"

#include <cstring>

#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// Reduces a 128-bit product modulo the Mersenne prime 2^61 - 1.
inline uint64_t ModMersenne(__uint128_t x) {
  constexpr uint64_t kPrime = PolynomialHash::kPrime;
  uint64_t low = static_cast<uint64_t>(x) & kPrime;
  uint64_t high = static_cast<uint64_t>(x >> 61);
  uint64_t result = low + high;
  if (result >= kPrime) result -= kPrime;
  return result;
}

// One little-endian 8-byte word, read with a single load.
inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return internal::LittleToHost64(word);
}

}  // namespace

uint64_t ChecksumBytes(uint64_t h, const uint8_t* data, size_t size) {
  size_t i = 0;
  if (size >= kChecksumLaneMinBytes) {
    uint64_t lane0 = MixHash(0, h);
    uint64_t lane1 = MixHash(1, h);
    uint64_t lane2 = MixHash(2, h);
    uint64_t lane3 = MixHash(3, h);
    for (; i + 32 <= size; i += 32) {
      lane0 = MixHash(LoadWord(data + i), lane0);
      lane1 = MixHash(LoadWord(data + i + 8), lane1);
      lane2 = MixHash(LoadWord(data + i + 16), lane2);
      lane3 = MixHash(LoadWord(data + i + 24), lane3);
    }
    h = MixHash(lane0, h);
    h = MixHash(lane1, h);
    h = MixHash(lane2, h);
    h = MixHash(lane3, h);
  }
  for (; i + 8 <= size; i += 8) h = MixHash(LoadWord(data + i), h);
  uint64_t tail = 0;
  for (size_t j = size; j > i; --j) tail = (tail << 8) | data[j - 1];
  return MixHash(tail, h);
}

PolynomialHash::PolynomialHash(int degree, uint64_t seed) {
  MERGEABLE_CHECK_MSG(degree >= 1, "PolynomialHash degree must be >= 1");
  coefficients_.resize(static_cast<size_t>(degree));
  Rng rng(seed);
  for (uint64_t& c : coefficients_) c = rng.UniformInt(kPrime);
  // Force a full-degree polynomial (leading coefficient nonzero).
  if (degree > 1 && coefficients_.back() == 0) coefficients_.back() = 1;
}

uint64_t PolynomialHash::operator()(uint64_t x) const {
  // Map the 64-bit key into the field first.
  const uint64_t key = x % kPrime;
  uint64_t acc = 0;
  for (size_t i = coefficients_.size(); i-- > 0;) {
    acc = ModMersenne(static_cast<__uint128_t>(acc) * key + coefficients_[i]);
  }
  return acc;
}

void PolynomialHash::BoundedBatch(const uint64_t* items, size_t n,
                                  uint64_t bound, uint64_t* out) const {
  MERGEABLE_DCHECK(bound > 0);
  if (coefficients_.size() == 2) {
    // Degree 2 unrolled: Horner over {a0, a1} is exactly one field
    // multiply-add. Coefficients are already in [0, p), so the first
    // Horner step ModMersenne(0 * key + a1) == a1 — identical results to
    // operator(), minus the loop and the per-call coefficient loads.
    const uint64_t a0 = coefficients_[0];
    const uint64_t a1 = coefficients_[1];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = items[i] % kPrime;
      out[i] = ModMersenne(static_cast<__uint128_t>(a1) * key + a0) % bound;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = Bounded(items[i], bound);
}

}  // namespace mergeable
