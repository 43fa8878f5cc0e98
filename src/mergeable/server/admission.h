// Bounded admission queue with backpressure and priority shedding.
//
// The overload-control core of the ingest server (DESIGN.md §11). All
// decoded-but-unprocessed work lives in one bounded queue per worker;
// overload policy is decided here, at admission time, never deeper in
// the pipeline. Three kinds of work arrive: report frames (BAT1, one
// or many records — a single report is a one-record batch), queries and
// topology announcements.
//
//   * High/low watermarks with hysteresis: crossing the high watermark
//     flips the queue into backpressure — new reports are NACKed with a
//     retry-after hint — and backpressure holds until the queue drains
//     below the low watermark, so a saturated server does not flap
//     between accept and reject on every pop.
//   * A hard cap and a byte budget bound worst-case memory regardless
//     of watermark state; work above either is shed outright.
//   * Priority: queries and topology announcements outrank reports. A
//     report is shed as soon as backpressure engages (the client
//     retries it, or the loss is accounted as degraded coverage); a
//     query is only refused at the hard cap, because refusing it loses
//     an answer, not just mass. A topology frame gets the same
//     treatment — it is the control plane reshaping the very fleet
//     that is overloading, so shedding it under backpressure would
//     wedge the one action that relieves the pressure.
//
// Every shed is counted. The server's epsilon accounting leans on these
// counters: a shed report is lost mass, and the degraded-coverage
// report must say so exactly (ISSUE criterion b).
//
// SetPaused() freezes consumption so tests can fill the queue to a
// deterministic state: with workers paused, exactly the first
// `high_watermark` one-report frames are admitted and every later one
// is NACKed, independent of scheduling.

#ifndef MERGEABLE_SERVER_ADMISSION_H_
#define MERGEABLE_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace mergeable {

enum class WorkKind : uint8_t {
  kQuery = 1,
  kBatch = 2,     // A BAT1 frame carrying `reports` report records.
  kTopology = 3,  // A TOP1 shard-topology announcement.
};

// One admitted unit of work: a decoded-enough frame plus routing info.
// `reports` is the item's weight in admission accounting — a batch
// frame of N reports consumes N units of queue depth, so watermarks,
// the hard cap and the shed counters stay exact at batch granularity
// (a 256-report batch is not cheaper to queue than 256 one-report
// frames).
struct WorkItem {
  WorkKind kind = WorkKind::kBatch;
  uint64_t conn_id = 0;
  uint64_t reports = 1;
  std::vector<uint8_t> frame;
};

// Why admission refused an item (mapped to a NACK on the wire).
enum class AdmitResult : uint8_t {
  kAdmitted = 0,
  kBackpressure = 1,  // Over high watermark: retry after the hint.
  kOverCap = 2,       // Hard cap or byte budget: shed outright.
  kClosed = 3,
};

struct AdmissionConfig {
  // Depth limits are denominated in *reports*, not frames: a batch
  // frame weighs its report count, so large and one-report batches
  // face the same watermarks. (Queries weigh one unit.)
  size_t high_watermark = 64;   // Reports; backpressure engages above.
  size_t low_watermark = 16;    // Reports; backpressure releases below.
  size_t hard_cap = 256;        // Reports; nothing admitted above.
  size_t byte_budget = 8u << 20;  // Bytes of queued frames.
  uint64_t retry_after_ms = 20;   // Hint sent with backpressure NACKs.
};

struct AdmissionStats {
  uint64_t admitted_reports = 0;  // Reports (batch members count apiece).
  uint64_t admitted_queries = 0;
  uint64_t admitted_batches = 0;  // Report (BAT1) frames admitted.
  uint64_t admitted_topologies = 0;
  uint64_t shed_reports = 0;      // Reports, exact at batch granularity.
  uint64_t shed_batches = 0;      // Report (BAT1) frames shed.
  uint64_t shed_queries = 0;
  uint64_t shed_topologies = 0;   // Hard cap only; never backpressure.
  uint64_t backpressure_nacks = 0;  // Subset of shed_reports.
  size_t peak_depth = 0;          // Reports, not frames.
  size_t peak_bytes = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionConfig config);

  // Applies the overload policy and enqueues on admission. Thread-safe.
  AdmitResult Offer(WorkItem item);

  // Blocks until an item is available (and the queue is not paused), or
  // the queue is closed and empty.
  std::optional<WorkItem> Take();

  // Close() wakes all takers; a closed queue admits nothing but still
  // drains what it holds.
  void Close();

  // Pauses/unpauses Take() — items stay queued while paused.
  void SetPaused(bool paused);

  // Blocks until the queue is empty (for drain barriers in tests).
  void WaitUntilEmpty();

  bool in_backpressure() const;
  size_t depth() const;  // Queued reports (batch members count apiece).
  size_t queued_bytes() const;
  uint64_t retry_after_ms() const { return config_.retry_after_ms; }
  AdmissionStats stats() const;

 private:
  AdmissionConfig config_;

  mutable std::mutex mu_;
  std::condition_variable take_cv_;
  std::condition_variable empty_cv_;
  std::deque<WorkItem> queue_;
  size_t queued_reports_ = 0;  // Sum of queued items' report weights.
  size_t queued_bytes_ = 0;
  bool backpressure_ = false;
  bool paused_ = false;
  bool closed_ = false;
  AdmissionStats stats_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_ADMISSION_H_
