// DedupWindow: bounded retry memory for ingest coordinators.
//
// The regression this file guards (ISSUE satellite): a duplicate storm
// — one report resent forever — must not grow coordinator dedup state
// past its cap. Before the window existed, every admitted key lived
// forever; the storm test asserts the bound directly.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "mergeable/aggregate/dedup.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

TEST(DedupTest, AdmitsNewKeysAndRefusesDuplicates) {
  DedupWindow window(8);
  EXPECT_TRUE(window.Admit(1, 1));
  EXPECT_TRUE(window.Admit(2, 1));
  EXPECT_FALSE(window.Admit(1, 1));
  EXPECT_TRUE(window.Admit(1, 2));  // Same shard, new epoch: distinct.
  EXPECT_EQ(window.size(), 3u);
  EXPECT_TRUE(window.Contains(1, 1));
  EXPECT_FALSE(window.Contains(9, 9));
}

TEST(DedupTest, SizeNeverExceedsCapacity) {
  DedupWindow window(16);
  for (uint64_t shard = 0; shard < 100; ++shard) {
    for (uint64_t epoch = 0; epoch < 10; ++epoch) {
      window.Admit(shard, epoch);
      EXPECT_LE(window.size(), 16u);
    }
  }
  EXPECT_EQ(window.size(), 16u);
  EXPECT_EQ(window.evictions(), 1000u - 16u);
}

TEST(DedupTest, EvictionIsFifo) {
  DedupWindow window(3);
  window.Admit(0, 0);
  window.Admit(1, 0);
  window.Admit(2, 0);
  window.Admit(3, 0);  // Evicts (0, 0), the oldest admission.
  EXPECT_FALSE(window.Contains(0, 0));
  EXPECT_TRUE(window.Contains(1, 0));
  EXPECT_TRUE(window.Contains(2, 0));
  EXPECT_TRUE(window.Contains(3, 0));
  // A forgotten key is admissible again (the epoch check upstream is
  // what keeps that from double-counting in practice).
  EXPECT_TRUE(window.Admit(0, 0));
  EXPECT_FALSE(window.Contains(1, 0));
}

TEST(DedupTest, DuplicateStormCannotGrowTheWindow) {
  // The regression: thousands of resends of one already-admitted report
  // perform zero insertions — size, order and eviction count are all
  // byte-for-byte unchanged.
  DedupWindow window(32);
  for (uint64_t shard = 0; shard < 32; ++shard) window.Admit(shard, 7);
  const size_t size_before = window.size();
  const uint64_t evictions_before = window.evictions();
  for (int resend = 0; resend < 10000; ++resend) {
    EXPECT_FALSE(window.Admit(5, 7));
  }
  EXPECT_EQ(window.size(), size_before);
  EXPECT_EQ(window.evictions(), evictions_before);
  // And the storm did not evict anyone else's key.
  for (uint64_t shard = 0; shard < 32; ++shard) {
    EXPECT_TRUE(window.Contains(shard, 7));
  }
}

TEST(DedupTest, CapacityOneStillDedupsConsecutiveRetries) {
  DedupWindow window(1);
  EXPECT_TRUE(window.Admit(4, 4));
  EXPECT_FALSE(window.Admit(4, 4));
  EXPECT_TRUE(window.Admit(5, 5));
  EXPECT_FALSE(window.Contains(4, 4));
  EXPECT_EQ(window.size(), 1u);
}

// The window as it was first written — an ordered set for membership
// and a deque for FIFO order — kept as the reference the flat ring +
// open-addressing implementation must match call for call.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(size_t capacity) : capacity_(capacity) {}

  bool Admit(uint64_t shard, uint64_t epoch) {
    const std::pair<uint64_t, uint64_t> key{shard, epoch};
    if (seen_.count(key) != 0) return false;
    if (order_.size() >= capacity_) {
      seen_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    seen_.insert(key);
    order_.push_back(key);
    return true;
  }
  bool Contains(uint64_t shard, uint64_t epoch) const {
    return seen_.count({shard, epoch}) != 0;
  }
  size_t size() const { return order_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  std::set<std::pair<uint64_t, uint64_t>> seen_;
  std::deque<std::pair<uint64_t, uint64_t>> order_;
  uint64_t evictions_ = 0;
};

// Random admit streams over a key universe a few times the capacity:
// the ring wraps many times, most admissions evict, evicted keys come
// back (re-admission after eviction), and at <= 0.7 load every
// eviction deletes from inside some probe chain. After each burst the
// whole universe is probed, so a chain broken by a deletion shows up
// as a key that vanished or a forgotten one that stayed.
TEST(DedupTest, MatchesTheReferenceModelOnRandomStreams) {
  for (const size_t capacity : {1u, 2u, 3u, 7u, 16u, 100u, 1000u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      DedupWindow window(capacity);
      ReferenceWindow reference(capacity);
      Rng rng(seed * 7 + capacity);
      const uint64_t shards = 2 * capacity + 1;
      const uint64_t epochs = 3;
      for (int burst = 0; burst < 40; ++burst) {
        for (size_t step = 0; step < capacity + 5; ++step) {
          const uint64_t shard = rng.UniformInt(shards);
          const uint64_t epoch = rng.UniformInt(epochs);
          ASSERT_EQ(window.Admit(shard, epoch),
                    reference.Admit(shard, epoch))
              << "capacity " << capacity << " seed " << seed;
          ASSERT_EQ(window.size(), reference.size());
          ASSERT_EQ(window.evictions(), reference.evictions());
        }
        for (uint64_t shard = 0; shard < shards; ++shard) {
          for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
            ASSERT_EQ(window.Contains(shard, epoch),
                      reference.Contains(shard, epoch))
                << "capacity " << capacity << " key (" << shard << ", "
                << epoch << ")";
          }
        }
      }
      EXPECT_LE(window.size(), capacity);
    }
  }
}

// Keys that differ only in the high bits of one field, or that swap
// shard and epoch, must stay distinct.
TEST(DedupTest, KeysDifferingOnlyInOneFieldStayDistinct) {
  DedupWindow window(64);
  EXPECT_TRUE(window.Admit(1, 2));
  EXPECT_TRUE(window.Admit(2, 1));
  EXPECT_TRUE(window.Admit(uint64_t{1} << 63, 2));
  EXPECT_TRUE(window.Admit(1, (uint64_t{1} << 63) | 2));
  EXPECT_FALSE(window.Admit(2, 1));
  EXPECT_FALSE(window.Admit(uint64_t{1} << 63, 2));
  EXPECT_EQ(window.size(), 4u);
}

}  // namespace
}  // namespace mergeable
