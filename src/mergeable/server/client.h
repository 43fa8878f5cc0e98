// Ingest client: the worker side of the socket transport.
//
// Speaks the framed wire protocol over a loopback TCP connection:
// length-prefixed frames out, length-prefixed frames back. Reports go
// out as BAT1 frames only; a single report is a one-record batch,
// SendBatch({report}, policy).
//
// SendBatch is the one retry loop a worker runs against an overloaded
// server — it reuses the aggregation pipeline's BackoffPolicy
// (coordinator.h) and additionally honors the server's retry-after
// hints: a NACKed report waits max(policy backoff, server hint) before
// trying again, so a cooperating fleet backs off exactly as hard as the
// server asks. A whole-batch retry-after NACK (the server shed the
// frame at admission) backs the entire batch off and resends it;
// per-record retry-after verdicts resend just those records as a
// follow-up batch. Transport faults (hangup, timeout) reconnect and
// retry under the same policy; the server dedups by each open epoch's
// admitted shards, which makes every resend idempotent.
//
// Batching mode: BufferReport accumulates reports and flushes them as
// one frame when any threshold trips — report count, buffered bytes, or
// the age of the oldest buffered report. The open batch is a BAT1
// frame built as reports arrive (BatchFrameWriter, wire.h), so the
// client holds one copy of each buffered payload; Flush seals it and
// SendFrame writes it, like every frame, in one sendmsg.

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

// Terminal verdict of one SendBatch retry loop (the worst record's).
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

  // Writes one frame and its stream prefix with one sendmsg; false on
  // transport error.
  bool SendFrame(const std::vector<uint8_t>& frame);

  // Blocks for the next complete frame; std::nullopt on timeout,
  // hangup, or a poisoned stream.
  std::optional<std::vector<uint8_t>> ReadFrame();

  // One query exchange; std::nullopt on transport failure or a
  // non-answer response.
  std::optional<WireAnswer> Query(const WireQuery& query);

  // ---- Batching mode ----

  void set_batch_options(BatchOptions options);

  // Appends one report to the open batch; when a threshold trips,
  // flushes and returns the flush's outcome (std::nullopt while merely
  // buffering).
  // Callers must Flush() explicitly at end of stream — buffered reports
  // are local state until then.
  std::optional<BatchOutcome> BufferReport(WireReport report,
                                           const BackoffPolicy& policy);

  // Sends everything buffered now (no-op outcome when empty).
  BatchOutcome Flush(const BackoffPolicy& policy);

  size_t buffered_reports() const { return open_batch_.count(); }

  // The full ingest exchange with retries, for one report or many:
  // send the frame, await the verdict; whole-batch NACKs and transport
  // faults resend everything outstanding, per-record retry-after
  // verdicts resend just those records.
  BatchOutcome SendBatch(std::vector<WireReport> reports,
                         const BackoffPolicy& policy);

  const ClientStats& stats() const { return stats_; }

 private:
  // The retry loop over one sealed BAT1 frame of `count` records.
  BatchOutcome SendBatchFrame(std::vector<uint8_t> frame, uint32_t count,
                              const BackoffPolicy& policy);

  uint16_t port_;
  uint64_t recv_timeout_ms_;
  ScopedFd fd_;
  FrameDecoder decoder_;
  ClientStats stats_;

  BatchOptions batch_options_;
  BatchFrameWriter open_batch_;  // Buffered reports, as a BAT1 frame.
  std::chrono::steady_clock::time_point oldest_buffered_{};
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_CLIENT_H_
