#include "mergeable/store/node_cache.h"

#include <utility>

#include "mergeable/util/check.h"

namespace mergeable {

MergedSummaryCache::MergedSummaryCache(size_t capacity)
    : capacity_(capacity) {
  MERGEABLE_CHECK_MSG(capacity >= 1, "cache capacity must be >= 1");
}

MergedSummaryCache::Payload MergedSummaryCache::GetOrBuild(
    const CacheKey& key, const Builder& build) {
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      entries_.splice(entries_.begin(), entries_, it->second);
      return it->second->second;
    }
    auto in_flight_it = in_flight_.find(key);
    if (in_flight_it != in_flight_.end()) {
      // Someone else is building this key; join their flight.
      ++stats_.single_flight_waits;
      std::shared_ptr<InFlight> theirs = in_flight_it->second;
      theirs->cv.wait(lock, [&theirs] { return theirs->done; });
      return theirs->result;
    }
    ++stats_.misses;
    flight = std::make_shared<InFlight>();
    in_flight_.emplace(key, flight);
  }

  // Build outside the lock: distinct keys materialize concurrently, and
  // a slow merge cannot stall unrelated hits.
  std::optional<std::vector<uint8_t>> built = build();
  Payload payload =
      built.has_value()
          ? std::make_shared<const std::vector<uint8_t>>(std::move(*built))
          : nullptr;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    flight->result = payload;
    flight->done = true;
    in_flight_.erase(key);
    if (payload != nullptr) {
      stats_.bytes_built += payload->size();
      InsertLocked(key, payload);
    }
  }
  flight->cv.notify_all();
  return payload;
}

MergedSummaryCache::Payload MergedSummaryCache::Peek(const CacheKey& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  return it->second->second;
}

void MergedSummaryCache::Put(const CacheKey& key,
                             std::vector<uint8_t> payload) {
  Payload shared =
      std::make_shared<const std::vector<uint8_t>>(std::move(payload));
  std::unique_lock<std::mutex> lock(mutex_);
  InsertLocked(key, shared);
}

size_t MergedSummaryCache::size() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return entries_.size();
}

CacheStats MergedSummaryCache::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

void MergedSummaryCache::InsertLocked(const CacheKey& key,
                                      const Payload& payload) {
  stats_.bytes_cached += payload->size();
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Resident (a write-through, or a build that raced one): replace
    // in place, so the list and the index stay one entry per key.
    stats_.bytes_cached -= it->second->second->size();
    it->second->second = payload;
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.emplace_front(key, payload);
  index_.emplace(key, entries_.begin());
  while (entries_.size() > capacity_) {
    const auto& [victim_key, victim_payload] = entries_.back();
    stats_.bytes_cached -= victim_payload->size();
    ++stats_.evictions;
    index_.erase(victim_key);
    entries_.pop_back();
  }
}

}  // namespace mergeable
