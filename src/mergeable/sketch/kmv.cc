#include "mergeable/sketch/kmv.h"

#include <algorithm>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"

namespace mergeable {

KmvSketch::KmvSketch(int k, uint64_t seed) : k_(k), seed_(seed) {
  MERGEABLE_CHECK_MSG(k >= 2, "KMV needs k >= 2");
  // Capped pre-reserve: `k` can come off the wire via DecodeFrom.
  heap_.reserve(std::min<size_t>(static_cast<size_t>(k), size_t{1} << 16));
}

void KmvSketch::Add(uint64_t item) { Insert(MixHash(item, seed_)); }

void KmvSketch::Insert(uint64_t hash) {
  if (heap_.size() == static_cast<size_t>(k_) && hash >= heap_.front()) {
    return;
  }
  // Reject duplicates (identical items hash identically).
  if (std::find(heap_.begin(), heap_.end(), hash) != heap_.end()) return;
  if (heap_.size() < static_cast<size_t>(k_)) {
    heap_.push_back(hash);
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.back() = hash;
  std::push_heap(heap_.begin(), heap_.end());
}

double KmvSketch::EstimateDistinct() const {
  if (heap_.size() < static_cast<size_t>(k_)) {
    // Fewer than k distinct items: the count is exact.
    return static_cast<double>(heap_.size());
  }
  // kth_min / 2^64 estimates k / (distinct + 1).
  const double fraction =
      static_cast<double>(heap_.front()) / 18446744073709551616.0;
  return (static_cast<double>(k_) - 1.0) / fraction;
}

void KmvSketch::Merge(const KmvSketch& other) {
  MERGEABLE_CHECK_MSG(k_ == other.k_ && seed_ == other.seed_,
                      "KMV merge requires identical k and seed");
  for (uint64_t hash : other.heap_) Insert(hash);
}

namespace {
constexpr uint32_t kKmvMagic = 0x3130564b;  // "KV01"
}  // namespace

void KmvSketch::Canonicalize() {
  // DecodeFrom heapifies the sorted retained set.
  std::sort(heap_.begin(), heap_.end());
  std::make_heap(heap_.begin(), heap_.end());
}

void KmvSketch::EncodeTo(ByteWriter& writer) const {
  writer.PutU32(kKmvMagic);
  writer.PutU32(static_cast<uint32_t>(k_));
  writer.PutU64(seed_);
  writer.PutU32(static_cast<uint32_t>(heap_.size()));
  // Canonical order: the retained set is what the sketch *is* — writing
  // it sorted (rather than in heap layout, which depends on insertion
  // order) makes equal sets encode to equal bytes. DecodeFrom rebuilds
  // the heap, so the layout never mattered to round-trips.
  std::vector<uint64_t> sorted(heap_.begin(), heap_.end());
  std::sort(sorted.begin(), sorted.end());
  writer.PutU64Array(sorted);
}

std::optional<KmvSketch> KmvSketch::DecodeFrom(ByteReader& reader) {
  uint32_t magic = 0;
  uint32_t k = 0;
  uint64_t seed = 0;
  uint32_t size = 0;
  if (!reader.GetU32(&magic) || magic != kKmvMagic) return std::nullopt;
  if (!reader.GetU32(&k) || k < 2 || k > (1u << 28)) return std::nullopt;
  if (!reader.GetU64(&seed) || !reader.GetU32(&size) || size > k) {
    return std::nullopt;
  }
  KmvSketch sketch(static_cast<int>(k), seed);
  if (!reader.GetWordVector(size, &sketch.heap_)) return std::nullopt;
  if (!reader.Exhausted()) return std::nullopt;
  // Any order is accepted; sorted, duplicates (which violate the KMV
  // invariant) sit next to each other.
  std::sort(sketch.heap_.begin(), sketch.heap_.end());
  if (std::adjacent_find(sketch.heap_.begin(), sketch.heap_.end()) !=
      sketch.heap_.end()) {
    return std::nullopt;
  }
  std::make_heap(sketch.heap_.begin(), sketch.heap_.end());
  return sketch;
}

}  // namespace mergeable
