#include "mergeable/server/admission.h"

#include "mergeable/util/check.h"

namespace mergeable {

AdmissionQueue::AdmissionQueue(AdmissionConfig config) : config_(config) {
  MERGEABLE_CHECK_MSG(config_.low_watermark <= config_.high_watermark,
                      "low watermark must not exceed high watermark");
  MERGEABLE_CHECK_MSG(config_.high_watermark <= config_.hard_cap,
                      "high watermark must not exceed hard cap");
  MERGEABLE_CHECK_MSG(config_.hard_cap >= 1, "hard cap must be >= 1");
}

AdmitResult AdmissionQueue::Offer(WorkItem item) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return AdmitResult::kClosed;

  const bool is_query = item.kind == WorkKind::kQuery;
  const bool is_topology = item.kind == WorkKind::kTopology;
  // Queries and topology announcements share the high-priority class:
  // both weigh one unit and are refused only at the hard limits.
  const bool is_priority = is_query || is_topology;
  const size_t item_bytes = item.frame.size();
  // An item's admission weight: a batch frame costs its report count,
  // so depth limits see through batching (a query weighs one unit; an
  // empty batch still occupies one slot so it cannot flood for free).
  const size_t weight =
      is_priority ? 1
                  : static_cast<size_t>(item.reports > 0 ? item.reports : 1);

  // Hard limits first: nothing is admitted above the cap or the byte
  // budget, queries included. A batch that does not fit whole is shed
  // whole — admission never splits a frame.
  if (queued_reports_ + weight > config_.hard_cap ||
      queued_bytes_ + item_bytes > config_.byte_budget) {
    if (is_query) {
      ++stats_.shed_queries;
    } else if (is_topology) {
      ++stats_.shed_topologies;
    } else {
      stats_.shed_reports += weight;
      ++stats_.shed_batches;
    }
    return AdmitResult::kOverCap;
  }

  // Hysteresis: engage above high, release below low (checked in
  // Take()).
  if (queued_reports_ >= config_.high_watermark) backpressure_ = true;

  // Priority shedding: under backpressure, reports are refused while
  // queries and topology changes keep flowing up to the hard cap.
  if (backpressure_ && !is_priority) {
    stats_.shed_reports += weight;
    stats_.backpressure_nacks += weight;
    ++stats_.shed_batches;
    return AdmitResult::kBackpressure;
  }

  queued_bytes_ += item_bytes;
  queued_reports_ += weight;
  queue_.push_back(std::move(item));
  if (is_query) {
    ++stats_.admitted_queries;
  } else if (is_topology) {
    ++stats_.admitted_topologies;
  } else {
    stats_.admitted_reports += weight;
    ++stats_.admitted_batches;
  }
  if (queued_reports_ > stats_.peak_depth) {
    stats_.peak_depth = queued_reports_;
  }
  if (queued_bytes_ > stats_.peak_bytes) stats_.peak_bytes = queued_bytes_;
  take_cv_.notify_one();
  return AdmitResult::kAdmitted;
}

std::optional<WorkItem> AdmissionQueue::Take() {
  std::unique_lock<std::mutex> lock(mu_);
  take_cv_.wait(lock, [this] {
    return (!paused_ && !queue_.empty()) || (closed_ && queue_.empty());
  });
  if (queue_.empty()) return std::nullopt;  // Closed and drained.
  WorkItem item = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= item.frame.size();
  const size_t weight =
      (item.kind == WorkKind::kQuery || item.kind == WorkKind::kTopology)
          ? 1
          : static_cast<size_t>(item.reports > 0 ? item.reports : 1);
  queued_reports_ -= weight;
  if (backpressure_ && queued_reports_ <= config_.low_watermark) {
    backpressure_ = false;
  }
  if (queue_.empty()) empty_cv_.notify_all();
  return item;
}

void AdmissionQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  take_cv_.notify_all();
  empty_cv_.notify_all();
}

void AdmissionQueue::SetPaused(bool paused) {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = paused;
  if (!paused_) take_cv_.notify_all();
}

void AdmissionQueue::WaitUntilEmpty() {
  std::unique_lock<std::mutex> lock(mu_);
  empty_cv_.wait(lock, [this] { return queue_.empty(); });
}

bool AdmissionQueue::in_backpressure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backpressure_;
}

size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_reports_;
}

size_t AdmissionQueue::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_bytes_;
}

AdmissionStats AdmissionQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mergeable
