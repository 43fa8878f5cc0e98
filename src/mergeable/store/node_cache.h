// Bounded LRU cache of materialized merged-summary payloads, with
// single-flight construction.
//
// The store's tree nodes and range results are immutable once built
// (epochs never change after sealing), so the cache never needs
// invalidation — only boundedness. Entries are canonical payload bytes
// behind shared_ptr, so a hit hands out a reference without copying and
// an eviction cannot pull bytes out from under a reader.
//
// Single-flight: when several queries race for the same missing key,
// exactly one runs the builder; the rest block until it finishes and
// share the result. Without this, a popular cold node would be merged
// once per concurrent query — the classic cache-stampede failure of
// serving layers. The builder runs outside the cache lock, so distinct
// keys build concurrently.
//
// Write-through: a seal already holds the bytes of the leaf and the
// nodes it completes, so it Puts them instead of having the next build
// page them back in. The most recent part of the tree — what "the last
// w epochs" queries fold — is therefore resident without a second copy.
//
// The cache is type-erased (bytes, not summaries): one implementation,
// one test suite, shared by every SummaryStore<S> instantiation.

#ifndef MERGEABLE_STORE_NODE_CACHE_H_
#define MERGEABLE_STORE_NODE_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace mergeable {

// What a cache entry describes. Tree nodes and whole-range results live
// in the same cache: a repeated range query should cost one lookup, not
// one lookup per covering node.
enum class CacheEntryKind : uint8_t {
  kTreeNode = 0,    // a = level, b = node index.
  kRangeResult = 1, // a = first epoch index, b = last epoch index.
};

struct CacheKey {
  uint64_t stream = 0;
  CacheEntryKind kind = CacheEntryKind::kTreeNode;
  uint64_t a = 0;
  uint64_t b = 0;

  friend bool operator==(const CacheKey& x, const CacheKey& y) {
    return x.stream == y.stream && x.kind == y.kind && x.a == y.a &&
           x.b == y.b;
  }
  friend bool operator<(const CacheKey& x, const CacheKey& y) {
    if (x.stream != y.stream) return x.stream < y.stream;
    if (x.kind != y.kind) return x.kind < y.kind;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;            // Lookups that ran the builder.
  uint64_t evictions = 0;
  uint64_t single_flight_waits = 0;  // Lookups that joined a build.
  uint64_t bytes_cached = 0;      // Current resident payload bytes.
  uint64_t bytes_built = 0;       // Total payload bytes ever built.
};

class MergedSummaryCache {
 public:
  using Payload = std::shared_ptr<const std::vector<uint8_t>>;
  // std::nullopt means the value cannot be built now (its inputs are
  // lost): nothing is cached, and the caller and every joined waiter
  // get nullptr.
  using Builder = std::function<std::optional<std::vector<uint8_t>>()>;

  // Holds at most `capacity` entries (>= 1); least-recently-used entries
  // are evicted beyond that.
  explicit MergedSummaryCache(size_t capacity);

  // Returns the cached payload for `key`, running `build` to create it
  // on a miss. Concurrent callers for the same missing key run `build`
  // exactly once (single-flight); callers for different keys build in
  // parallel. `build` must not re-enter the cache with the same key.
  // nullptr when `build` (this caller's or the joined one) failed.
  Payload GetOrBuild(const CacheKey& key, const Builder& build);

  // The cached payload if resident (counts as a hit and refreshes
  // recency); nullptr otherwise (does not count as a miss).
  Payload Peek(const CacheKey& key);

  // Makes `payload` the resident value of `key` as its most recent
  // entry, replacing a resident one: the write-through of bytes the
  // caller already holds (a seal's new leaf and nodes). Counts neither a
  // hit nor a miss; evicts the LRU tail beyond capacity.
  void Put(const CacheKey& key, std::vector<uint8_t> payload);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  CacheStats stats() const;

 private:
  struct InFlight {
    bool done = false;
    Payload result;
    std::condition_variable cv;
  };

  // Inserts (or replaces) under the lock as the most recent entry,
  // evicting the LRU tail beyond capacity.
  void InsertLocked(const CacheKey& key, const Payload& payload);

  const size_t capacity_;
  mutable std::mutex mutex_;
  // LRU order: front = most recent. map points into the list.
  std::list<std::pair<CacheKey, Payload>> entries_;
  std::map<CacheKey, std::list<std::pair<CacheKey, Payload>>::iterator>
      index_;
  std::map<CacheKey, std::shared_ptr<InFlight>> in_flight_;
  CacheStats stats_;
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_NODE_CACHE_H_
