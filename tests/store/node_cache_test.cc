// MergedSummaryCache: LRU bookkeeping, counter exactness, and the
// single-flight guarantee under real concurrency (the StoreCache*
// concurrency suites also run under TSan in CI).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/store/node_cache.h"

namespace mergeable {
namespace {

CacheKey NodeKey(uint64_t stream, uint64_t level, uint64_t index) {
  return CacheKey{stream, CacheEntryKind::kTreeNode, level, index};
}

std::vector<uint8_t> Payload(uint8_t fill, size_t size) {
  return std::vector<uint8_t>(size, fill);
}

TEST(StoreCacheTest, MissBuildsThenHitReturnsSameBytes) {
  MergedSummaryCache cache(4);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return Payload(7, 3);
  };
  const auto first = cache.GetOrBuild(NodeKey(1, 0, 0), build);
  const auto second = cache.GetOrBuild(NodeKey(1, 0, 0), build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*first, Payload(7, 3));
  EXPECT_EQ(first, second);  // Same shared payload, not a copy.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_built, 3u);
  EXPECT_EQ(cache.stats().bytes_cached, 3u);
}

TEST(StoreCacheTest, DistinctKeyKindsDoNotCollide) {
  MergedSummaryCache cache(4);
  const CacheKey node{1, CacheEntryKind::kTreeNode, 2, 3};
  const CacheKey range{1, CacheEntryKind::kRangeResult, 2, 3};
  cache.GetOrBuild(node, [] { return Payload(1, 1); });
  cache.GetOrBuild(range, [] { return Payload(2, 1); });
  EXPECT_EQ(*cache.Peek(node), Payload(1, 1));
  EXPECT_EQ(*cache.Peek(range), Payload(2, 1));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(StoreCacheTest, EvictsLeastRecentlyUsed) {
  MergedSummaryCache cache(2);
  cache.GetOrBuild(NodeKey(0, 0, 0), [] { return Payload(0, 10); });
  cache.GetOrBuild(NodeKey(0, 0, 1), [] { return Payload(1, 10); });
  // Touch key 0 so key 1 becomes the LRU victim.
  EXPECT_NE(cache.Peek(NodeKey(0, 0, 0)), nullptr);
  cache.GetOrBuild(NodeKey(0, 0, 2), [] { return Payload(2, 10); });

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Peek(NodeKey(0, 0, 0)), nullptr);
  EXPECT_EQ(cache.Peek(NodeKey(0, 0, 1)), nullptr);
  EXPECT_NE(cache.Peek(NodeKey(0, 0, 2)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_cached, 20u);
}

TEST(StoreCacheTest, CapacityOneReplacesOnEveryNewKey) {
  MergedSummaryCache cache(1);
  for (uint64_t i = 0; i < 5; ++i) {
    cache.GetOrBuild(NodeKey(0, 0, i),
                     [i] { return Payload(static_cast<uint8_t>(i), 4); });
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_EQ(cache.stats().bytes_cached, 4u);
  // Rebuilding an evicted key is a fresh miss, and must reproduce the
  // same bytes deterministically.
  const auto again =
      cache.GetOrBuild(NodeKey(0, 0, 0), [] { return Payload(0, 4); });
  EXPECT_EQ(*again, Payload(0, 4));
  EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(StoreCacheTest, EvictionKeepsPayloadAliveForHolders) {
  MergedSummaryCache cache(1);
  const auto held = cache.GetOrBuild(NodeKey(0, 0, 0),
                                     [] { return Payload(9, 8); });
  cache.GetOrBuild(NodeKey(0, 0, 1), [] { return Payload(1, 8); });
  EXPECT_EQ(cache.Peek(NodeKey(0, 0, 0)), nullptr);  // Evicted...
  EXPECT_EQ(*held, Payload(9, 8));                   // ...but still alive.
}

// Put is the seal's write-through: replacing a resident key keeps one
// entry per key and exact byte accounting, and counts no lookup.
TEST(StoreCacheTest, PutOfResidentKeyKeepsSizeAndBytesExact) {
  MergedSummaryCache cache(4);
  cache.Put(NodeKey(1, 0, 0), Payload(1, 10));
  cache.Put(NodeKey(1, 0, 1), Payload(2, 6));
  cache.Put(NodeKey(1, 0, 0), Payload(3, 4));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().bytes_cached, 10u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().bytes_built, 0u);
  EXPECT_EQ(*cache.Peek(NodeKey(1, 0, 0)), Payload(3, 4));
  // A build over a Put key (as when a rebuild races a write-through)
  // replaces it the same way.
  cache.GetOrBuild(NodeKey(1, 1, 0), [] { return Payload(4, 5); });
  cache.Put(NodeKey(1, 1, 0), Payload(5, 7));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().bytes_cached, 17u);
}

TEST(StoreCacheTest, GetOrBuildAfterPutIsAHitWithoutBuilding) {
  MergedSummaryCache cache(4);
  cache.Put(NodeKey(2, 1, 3), Payload(8, 5));
  bool built = false;
  const auto got = cache.GetOrBuild(NodeKey(2, 1, 3), [&built] {
    built = true;
    return Payload(0, 1);
  });
  EXPECT_FALSE(built);
  EXPECT_EQ(*got, Payload(8, 5));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(StoreCacheTest, PutBeyondCapacityEvictsTheLruTail) {
  MergedSummaryCache cache(2);
  cache.Put(NodeKey(0, 0, 0), Payload(0, 3));
  cache.Put(NodeKey(0, 0, 1), Payload(1, 3));
  // Re-putting key 0 refreshes it, so key 1 is the LRU tail.
  cache.Put(NodeKey(0, 0, 0), Payload(0, 3));
  cache.Put(NodeKey(0, 0, 2), Payload(2, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_cached, 6u);
  EXPECT_EQ(cache.Peek(NodeKey(0, 0, 1)), nullptr);
  EXPECT_NE(cache.Peek(NodeKey(0, 0, 0)), nullptr);
  EXPECT_NE(cache.Peek(NodeKey(0, 0, 2)), nullptr);
}

// The single-flight contract: many threads racing for one cold key run
// the builder exactly once and all observe its result.
TEST(StoreCacheSingleFlightTest, ConcurrentMissesBuildOnce) {
  MergedSummaryCache cache(8);
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::atomic<int> ready{0};
  std::vector<MergedSummaryCache::Payload> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        results[t] = cache.GetOrBuild(NodeKey(1, 3, 4), [&builds] {
          builds.fetch_add(1);
          // Widen the race window so waiters actually join the flight.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return Payload(42, 16);
        });
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(builds.load(), 1);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, Payload(42, 16));
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));
}

// Distinct keys must build concurrently — a slow build of one key cannot
// serialize the whole cache.
TEST(StoreCacheSingleFlightTest, DistinctKeysBuildInParallel) {
  MergedSummaryCache cache(8);
  constexpr int kThreads = 4;
  std::atomic<int> entered{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cache.GetOrBuild(NodeKey(2, 0, static_cast<uint64_t>(t)), [&] {
        entered.fetch_add(1);
        // Every builder waits for all builders: deadlocks (within the
        // test timeout) if the cache held its lock across builds.
        while (entered.load() < kThreads) std::this_thread::yield();
        return Payload(static_cast<uint8_t>(t), 4);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.stats().misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(cache.stats().single_flight_waits, 0u);
}

// A builder that cannot build (its inputs are lost) caches nothing:
// every thread that joined its flight gets nullptr, and the next lookup
// runs a builder again.
TEST(StoreCacheSingleFlightTest, FailedBuildCachesNothingAndFailsItsWaiters) {
  MergedSummaryCache cache(4);
  constexpr int kThreads = 4;
  std::atomic<int> builds{0};
  std::atomic<int> ready{0};
  // Non-null until each thread stores what it got.
  std::vector<MergedSummaryCache::Payload> results(
      kThreads, std::make_shared<const std::vector<uint8_t>>());
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        results[t] = cache.GetOrBuild(
            NodeKey(1, 0, 9),
            [&builds]() -> std::optional<std::vector<uint8_t>> {
              builds.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
              return std::nullopt;
            });
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const auto& result : results) EXPECT_EQ(result, nullptr);
  EXPECT_GE(builds.load(), 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Peek(NodeKey(1, 0, 9)), nullptr);
  EXPECT_EQ(cache.stats().bytes_built, 0u);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
  // Nothing was remembered: the next lookup builds, and succeeds.
  const auto built =
      cache.GetOrBuild(NodeKey(1, 0, 9), [] { return Payload(3, 2); });
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(*built, Payload(3, 2));
  EXPECT_EQ(cache.size(), 1u);
}

// Hammer one hot key and a rotating cold set from many threads; TSan
// verifies the locking, the counters verify nothing was double-built.
TEST(StoreCacheSingleFlightTest, MixedHitMissStress) {
  MergedSummaryCache cache(4);
  constexpr int kThreads = 4;
  constexpr uint64_t kIters = 300;
  std::atomic<uint64_t> builds{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIters; ++i) {
        const uint64_t index = i % 7;
        const auto payload =
            cache.GetOrBuild(NodeKey(0, 0, index), [&builds, index] {
              builds.fetch_add(1);
              return Payload(static_cast<uint8_t>(index), 4);
            });
        ASSERT_EQ((*payload)[0], static_cast<uint8_t>(index));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, builds.load());
  EXPECT_EQ(stats.hits + stats.misses + stats.single_flight_waits,
            kThreads * kIters);
}

}  // namespace
}  // namespace mergeable
