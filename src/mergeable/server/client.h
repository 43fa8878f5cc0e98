// Ingest client: the worker side of the socket transport.
//
// Speaks the framed wire protocol over a loopback TCP connection:
// length-prefixed frames out, length-prefixed frames back. SendReport
// is the retry loop a worker runs against an overloaded server — it
// reuses the aggregation pipeline's BackoffPolicy (coordinator.h) and
// additionally honors the server's retry-after hints: a NACKed report
// waits max(policy backoff, server hint) before trying again, so a
// cooperating fleet backs off exactly as hard as the server asks.
// Transport faults (hangup, timeout) reconnect and retry under the same
// policy; the server's dedup makes the resend idempotent.
//
// Batching mode (BAT1): BufferReport accumulates reports and flushes
// them as one multi-report frame when any threshold trips — report
// count, buffered bytes, or the age of the oldest buffered report. The
// batch body is accumulated contiguously as reports arrive, so the
// flush is one scatter-gather sendmsg of [prefix | body | checksum]
// with no frame-sized copy. A whole-batch retry-after NACK (the server
// shed the frame at admission) backs the entire batch off and resends
// it; per-record retry-after verdicts resend just those records as a
// follow-up batch. The server dedups by each open epoch's admitted
// shards, which makes every resend idempotent, batched or not.

#ifndef MERGEABLE_SERVER_CLIENT_H_
#define MERGEABLE_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/frame_stream.h"
#include "mergeable/server/net.h"

namespace mergeable {

// Terminal verdict of one SendReport retry loop.
enum class SendStatus : uint8_t {
  kAccepted = 0,   // Server recorded the report (or already had it).
  kRejected = 1,   // Server says retrying cannot help.
  kExhausted = 2,  // Retries/backoff budget spent; report is lost.
};

struct ClientStats {
  uint64_t frames_sent = 0;
  uint64_t retries = 0;          // Attempts beyond each first.
  uint64_t retry_after_nacks = 0;
  uint64_t duplicates = 0;       // kDuplicate verdicts (benign).
  uint64_t reconnects = 0;
  uint64_t transport_errors = 0;
  uint64_t slept_ms = 0;         // Real backoff slept, for inspection.
  uint64_t batches_sent = 0;        // BAT1 frames put on the wire.
  uint64_t batch_shed_nacks = 0;    // Whole-batch retry-after verdicts.
  uint64_t batch_reports_sent = 0;  // Records across sent batches.
};

// Flush thresholds for batching mode; a flush fires when ANY trips.
struct BatchOptions {
  uint32_t max_reports = 64;       // Buffered reports.
  size_t max_bytes = 256u << 10;   // Buffered body bytes (stays well
                                   // under the 1 MiB stream frame cap).
  // Age of the oldest buffered report; checked on each BufferReport
  // (this is a synchronous client — no timer thread), so a deadline
  // flush fires with the report that finds the buffer stale. 0 = off.
  uint64_t flush_deadline_ms = 0;
};

// Terminal outcome of one batch flush, per-record counts included.
// Duplicates count as accepted (the server has the report).
struct BatchOutcome {
  SendStatus status = SendStatus::kAccepted;  // Worst record verdict.
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t exhausted = 0;  // Retry budget spent with records pending.
};

class IngestClient {
 public:
  // Connects immediately; connected() reports the outcome.
  explicit IngestClient(uint16_t port, uint64_t recv_timeout_ms = 5000);

  bool connected() const { return fd_.valid(); }
  bool Reconnect();

  // Writes one frame (length-prefixed); false on transport error.
  bool SendFrame(const std::vector<uint8_t>& frame);

  // Blocks for the next complete frame; std::nullopt on timeout,
  // hangup, or a poisoned stream.
  std::optional<std::vector<uint8_t>> ReadFrame();

  // The full ingest exchange with retries: send the report, await the
  // control verdict, back off and resend on NACK or transport fault.
  SendStatus SendReport(const WireReport& report,
                        const BackoffPolicy& policy);

  // One query exchange; std::nullopt on transport failure or a
  // non-answer response.
  std::optional<WireAnswer> Query(const WireQuery& query);

  // ---- Batching mode ----

  void set_batch_options(BatchOptions options);

  // Buffers one report (taken by value: the payload moves into the
  // retry buffer, not copied); when a threshold trips, flushes and
  // returns the flush's outcome (std::nullopt while merely buffering).
  // Callers must Flush() explicitly at end of stream — buffered reports
  // are local state until then.
  std::optional<BatchOutcome> BufferReport(WireReport report,
                                           const BackoffPolicy& policy);

  // Sends everything buffered now (no-op outcome when empty).
  BatchOutcome Flush(const BackoffPolicy& policy);

  size_t buffered_reports() const { return buffered_.size(); }

  // The full batch exchange with retries: whole-batch NACKs and
  // transport faults resend everything outstanding; per-record
  // retry-after verdicts resend just those records.
  BatchOutcome SendBatch(std::vector<WireReport> reports,
                         const BackoffPolicy& policy);

  const ClientStats& stats() const { return stats_; }

 private:
  // One scatter-gather send of a preassembled batch body:
  // [stream prefix + magic + body_len][body][checksum], no frame copy.
  bool SendBatchBody(const std::vector<uint8_t>& body);

  BatchOutcome SendBatchInternal(std::vector<WireReport> reports,
                                 const BackoffPolicy& policy,
                                 const std::vector<uint8_t>* body);

  uint16_t port_;
  uint64_t recv_timeout_ms_;
  ScopedFd fd_;
  FrameDecoder decoder_;
  ClientStats stats_;

  BatchOptions batch_options_;
  std::vector<WireReport> buffered_;   // Kept for retry sub-batches.
  std::vector<uint8_t> batch_body_;    // u32 count slot + records.
  std::chrono::steady_clock::time_point oldest_buffered_{};
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_CLIENT_H_
