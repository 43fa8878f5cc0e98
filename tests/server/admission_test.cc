// AdmissionQueue: watermark hysteresis, hard caps, byte budget,
// priority shedding, and pause/drain semantics — the overload policy in
// isolation, fully deterministic (no server, no sockets).

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/server/admission.h"

namespace mergeable {
namespace {

WorkItem Report(size_t bytes = 10) {
  WorkItem item;
  item.kind = WorkKind::kBatch;
  item.frame.assign(bytes, 0xaa);
  return item;
}

WorkItem Query(size_t bytes = 10) {
  WorkItem item;
  item.kind = WorkKind::kQuery;
  item.frame.assign(bytes, 0xbb);
  return item;
}

AdmissionConfig SmallConfig() {
  AdmissionConfig config;
  config.high_watermark = 4;
  config.low_watermark = 2;
  config.hard_cap = 8;
  config.byte_budget = 1 << 20;
  config.retry_after_ms = 7;
  return config;
}

TEST(AdmissionTest, AdmitsBelowHighWatermark) {
  AdmissionQueue queue(SmallConfig());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(queue.Offer(Report()), AdmitResult::kAdmitted);
  }
  EXPECT_FALSE(queue.in_backpressure());
  EXPECT_EQ(queue.depth(), 4u);
}

TEST(AdmissionTest, HighWatermarkEngagesBackpressureForReports) {
  AdmissionQueue queue(SmallConfig());
  for (int i = 0; i < 4; ++i) queue.Offer(Report());
  // Depth is at the high watermark: the next report is NACKed.
  EXPECT_EQ(queue.Offer(Report()), AdmitResult::kBackpressure);
  EXPECT_TRUE(queue.in_backpressure());
  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.admitted_reports, 4u);
  EXPECT_EQ(stats.shed_reports, 1u);
  EXPECT_EQ(stats.backpressure_nacks, 1u);
}

TEST(AdmissionTest, QueriesOutrankReportsUnderBackpressure) {
  AdmissionQueue queue(SmallConfig());
  for (int i = 0; i < 4; ++i) queue.Offer(Report());
  EXPECT_EQ(queue.Offer(Report()), AdmitResult::kBackpressure);
  // Same pressure, but a query still gets in — only the hard cap
  // stops it.
  EXPECT_EQ(queue.Offer(Query()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Offer(Query()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Offer(Query()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Offer(Query()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.depth(), 8u);  // At the hard cap now.
  EXPECT_EQ(queue.Offer(Query()), AdmitResult::kOverCap);
  const AdmissionStats stats = queue.stats();
  EXPECT_EQ(stats.admitted_queries, 4u);
  EXPECT_EQ(stats.shed_queries, 1u);
}

TEST(AdmissionTest, HysteresisReleasesOnlyBelowLowWatermark) {
  AdmissionQueue queue(SmallConfig());
  for (int i = 0; i < 4; ++i) queue.Offer(Report());
  queue.Offer(Report());  // Engage.
  ASSERT_TRUE(queue.in_backpressure());
  // Draining to 3 (above low watermark 2) keeps backpressure on.
  ASSERT_TRUE(queue.Take().has_value());
  EXPECT_TRUE(queue.in_backpressure());
  EXPECT_EQ(queue.Offer(Report()), AdmitResult::kBackpressure);
  // Draining to the low watermark releases it.
  ASSERT_TRUE(queue.Take().has_value());
  EXPECT_FALSE(queue.in_backpressure());
  EXPECT_EQ(queue.Offer(Report()), AdmitResult::kAdmitted);
}

TEST(AdmissionTest, ByteBudgetBoundsQueueMemory) {
  AdmissionConfig config;
  config.high_watermark = 100;
  config.low_watermark = 10;
  config.hard_cap = 100;
  config.byte_budget = 1000;
  AdmissionQueue queue(config);
  EXPECT_EQ(queue.Offer(Report(600)), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Offer(Report(600)), AdmitResult::kOverCap);
  EXPECT_EQ(queue.Offer(Report(400)), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.queued_bytes(), 1000u);
  const AdmissionStats stats = queue.stats();
  EXPECT_LE(stats.peak_bytes, config.byte_budget);
}

TEST(AdmissionTest, DepthNeverExceedsHardCapUnderStorm) {
  AdmissionQueue queue(SmallConfig());
  for (int i = 0; i < 1000; ++i) {
    queue.Offer(Report());
    queue.Offer(Query());
    EXPECT_LE(queue.depth(), 8u);
  }
  EXPECT_LE(queue.stats().peak_depth, 8u);
}

TEST(AdmissionTest, PausedQueueStillAppliesPolicy) {
  AdmissionQueue queue(SmallConfig());
  queue.SetPaused(true);
  // With no consumer, exactly high_watermark reports are admitted and
  // the rest are NACKed — the deterministic overload state the server
  // tests lean on.
  int admitted = 0;
  int nacked = 0;
  for (int i = 0; i < 20; ++i) {
    if (queue.Offer(Report()) == AdmitResult::kAdmitted) {
      ++admitted;
    } else {
      ++nacked;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(nacked, 16);
  queue.SetPaused(false);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.Take().has_value());
}

TEST(AdmissionTest, TakeBlocksUntilOfferAndDrainsFifo) {
  AdmissionQueue queue(SmallConfig());
  std::vector<uint8_t> seen;
  std::thread consumer([&] {
    for (int i = 0; i < 3; ++i) {
      auto item = queue.Take();
      ASSERT_TRUE(item.has_value());
      seen.push_back(item->frame.front());
    }
  });
  for (uint8_t fill : {1, 2, 3}) {
    WorkItem item;
    item.kind = WorkKind::kBatch;
    item.frame.assign(4, fill);
    queue.Offer(std::move(item));
  }
  consumer.join();
  EXPECT_EQ(seen, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(AdmissionTest, CloseWakesTakersAndDrainsRemainder) {
  AdmissionQueue queue(SmallConfig());
  queue.Offer(Report());
  queue.Close();
  EXPECT_TRUE(queue.Take().has_value());   // Drains what it held.
  EXPECT_FALSE(queue.Take().has_value());  // Then reports closed.
  EXPECT_EQ(queue.Offer(Report()), AdmitResult::kClosed);
}

TEST(AdmissionTest, RetryAfterHintComesFromConfig) {
  AdmissionQueue queue(SmallConfig());
  EXPECT_EQ(queue.retry_after_ms(), 7u);
}

}  // namespace
}  // namespace mergeable
