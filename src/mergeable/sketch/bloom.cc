#include "mergeable/sketch/bloom.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"

namespace mergeable {

BloomFilter::BloomFilter(size_t bits, int hashes, uint64_t seed)
    : BloomFilter(bits, hashes, seed, {}) {}

BloomFilter::BloomFilter(size_t bits, int hashes, uint64_t seed,
                         std::vector<uint64_t> words)
    : bits_(bits), hashes_(hashes), seed_(seed), words_(std::move(words)) {
  MERGEABLE_CHECK_MSG(bits >= 8, "BloomFilter needs at least 8 bits");
  MERGEABLE_CHECK_MSG(hashes >= 1, "BloomFilter needs at least one hash");
  if (words_.empty()) words_.assign((bits + 63) / 64, 0);
}

BloomFilter BloomFilter::ForExpectedItems(uint64_t expected_items, double fpr,
                                          uint64_t seed) {
  MERGEABLE_CHECK_MSG(fpr > 0.0 && fpr < 1.0, "fpr must be in (0, 1)");
  MERGEABLE_CHECK_MSG(expected_items >= 1, "expected_items must be >= 1");
  const double ln2 = std::log(2.0);
  const double bits_exact =
      -static_cast<double>(expected_items) * std::log(fpr) / (ln2 * ln2);
  const auto bits = static_cast<size_t>(std::max(8.0, std::ceil(bits_exact)));
  const int hashes = std::max(
      1, static_cast<int>(std::llround(
             ln2 * bits_exact / static_cast<double>(expected_items))));
  return BloomFilter(bits, hashes, seed);
}

namespace {
// Salt separating the second Kirsch-Mitzenmacher base hash from the first.
constexpr uint64_t kSecondHashSalt = 0x5851f42d4c957f2dULL;
}  // namespace

uint64_t BloomFilter::BitIndex(int hash, uint64_t item) const {
  // Kirsch-Mitzenmacher double hashing: h1 + i*h2 over two mixes.
  const uint64_t h1 = MixHash(item, seed_);
  const uint64_t h2 = MixHash(item, seed_ ^ kSecondHashSalt) | 1;
  return (h1 + static_cast<uint64_t>(hash) * h2) % bits_;
}

void BloomFilter::Add(uint64_t item) {
  ++added_;
  for (int h = 0; h < hashes_; ++h) {
    const uint64_t bit = BitIndex(h, item);
    words_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
}

void BloomFilter::AddBatch(const uint64_t* items, size_t count) {
  added_ += count;
  constexpr size_t kBlock = 256;
  constexpr size_t kPrefetchAhead = 8;
  uint64_t h1s[kBlock];
  uint64_t h2s[kBlock];
  for (size_t start = 0; start < count; start += kBlock) {
    const size_t block = std::min(kBlock, count - start);
    // Pass 1: the two base hashes, once per item (BitIndex recomputes
    // them per probe — the dominant per-item cost for k probes).
    for (size_t i = 0; i < block; ++i) {
      const uint64_t item = items[start + i];
      h1s[i] = MixHash(item, seed_);
      h2s[i] = MixHash(item, seed_ ^ kSecondHashSalt) | 1;
    }
    // Pass 2: set the probe bits, with the first probed word of the item
    // a few slots ahead already on its way into cache.
    for (size_t i = 0; i < block; ++i) {
      if (i + kPrefetchAhead < block) {
        __builtin_prefetch(&words_[(h1s[i + kPrefetchAhead] % bits_) / 64],
                           1);
      }
      const uint64_t h1 = h1s[i];
      const uint64_t h2 = h2s[i];
      for (int h = 0; h < hashes_; ++h) {
        const uint64_t bit = (h1 + static_cast<uint64_t>(h) * h2) % bits_;
        words_[bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
  }
}

bool BloomFilter::MayContain(uint64_t item) const {
  for (int h = 0; h < hashes_; ++h) {
    const uint64_t bit = BitIndex(h, item);
    if ((words_[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::Merge(const BloomFilter& other) {
  MERGEABLE_CHECK_MSG(bits_ == other.bits_ && hashes_ == other.hashes_ &&
                          seed_ == other.seed_,
                      "Bloom merge requires identical parameters");
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  added_ += other.added_;
}

double BloomFilter::EstimatedFpr() const {
  uint64_t set_bits = 0;
  for (uint64_t word : words_) {
    set_bits += static_cast<uint64_t>(std::popcount(word));
  }
  const double fill =
      static_cast<double>(set_bits) / static_cast<double>(bits_);
  return std::pow(fill, hashes_);
}

namespace {
constexpr uint32_t kBloomMagic = 0x31304642;  // "BF01"
}  // namespace

void BloomFilter::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kBloomMagic);
  writer.PutU64(bits_);
  writer.PutU32(static_cast<uint32_t>(hashes_));
  writer.PutU64(seed_);
  writer.PutU64(added_);
  writer.PutU64Array(words_);
}

std::optional<BloomFilter> BloomFilter::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint64_t bits = 0;
  uint32_t hashes = 0;
  uint64_t seed = 0;
  uint64_t added = 0;
  if (!reader.GetU32(&magic) || magic != kBloomMagic) return std::nullopt;
  if (!reader.GetU64(&bits) || bits < 8 || bits > (uint64_t{1} << 36)) {
    return std::nullopt;
  }
  if (!reader.GetU32(&hashes) || hashes < 1 || hashes > 64) {
    return std::nullopt;
  }
  if (!reader.GetU64(&seed) || !reader.GetU64(&added)) return std::nullopt;
  const size_t words = (bits + 63) / 64;
  if (reader.remaining() != words * sizeof(uint64_t)) return std::nullopt;
  std::vector<uint64_t> bit_words;
  if (!reader.GetWordVector(words, &bit_words)) return std::nullopt;
  BloomFilter filter(bits, static_cast<int>(hashes), seed,
                     std::move(bit_words));
  filter.added_ = added;
  return filter;
}

}  // namespace mergeable
