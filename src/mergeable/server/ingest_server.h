// The socket ingest server: epoll front-end + admission + workers.
//
// Architecture (DESIGN.md §11):
//
//   clients ── TCP ──> event loop thread ──> AdmissionQueue ──> workers
//                        (epoll, framing,      (overload           |
//                         NACK synthesis)       policy)            v
//   clients <── TCP ──  event loop thread <── response queue <── FrameHandler
//
// One thread owns every socket (accept, read, write — no fd is touched
// from two threads), so the network path needs no locks; workers talk
// to it only through the admission queue inbound and a mutex-guarded
// response queue + eventfd wakeup outbound. Workers call into a
// FrameHandler — the type-erasure boundary behind which the templated
// EpochService<S> (epoch_service.h) does the actual summary work.
//
// Frames are routed by magic: BAT1 report frames (one report or many),
// QRY1 queries and TOP1 topology announcements. Anything else is an
// unknown frame: the loop thread answers it with a NAK1 kRejected and
// counts it in ServerStats::unknown_frames.
//
// Overload behavior, all decided at admission (admission.h):
//   * report frames refused under backpressure get an immediate
//     whole-batch BVD1 verdict with a retry-after hint, synthesized on
//     the loop thread from the frame header alone (no payload decode
//     for work we are shedding);
//   * a connection whose outbound buffer exceeds the per-connection cap
//     is a slow consumer and is disconnected — a stalled socket must
//     not grow server memory;
//   * a stream that claims an oversized frame is hung up on
//     (frame_stream.h poisoning).

#ifndef MERGEABLE_SERVER_INGEST_SERVER_H_
#define MERGEABLE_SERVER_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "mergeable/server/admission.h"
#include "mergeable/server/frame_stream.h"
#include "mergeable/server/net.h"

namespace mergeable {

// What the server calls on each admitted frame; implemented by the
// templated EpochService<S>. All methods run on worker threads —
// implementations synchronize their own state — and return the frame to
// send back (a batch verdict for report frames, an answer frame for
// queries, a control frame for topology announcements).
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  // Not called by the server: report frames are BAT1 and go to
  // HandleBatch. Answers a hard reject; it remains declared only for
  // overriders that still forward it, and goes with them.
  virtual std::vector<uint8_t> HandleReport(
      const std::vector<uint8_t>& frame);
  virtual std::vector<uint8_t> HandleBatch(
      const std::vector<uint8_t>& frame) = 0;
  virtual std::vector<uint8_t> HandleQuery(
      const std::vector<uint8_t>& frame) = 0;
  // A TOP1 shard-topology announcement (wire.h). Defaults to a hard
  // reject so handlers that do not manage per-epoch shard counts need
  // no opt-out; EpochService overrides it.
  virtual std::vector<uint8_t> HandleTopology(
      const std::vector<uint8_t>& frame);
};

struct ServerConfig {
  uint16_t port = 0;  // 0 = ephemeral; port() reports the real one.
  size_t workers = 2;
  // SO_REUSEPORT on the listener, so several IngestServer instances can
  // bind one port and let the kernel spread connections across their
  // accept queues (sharded_server.h builds per-core sharding on this).
  bool reuse_port = false;
  AdmissionConfig admission;
  // A connection whose unsent responses exceed this is disconnected.
  size_t max_conn_buffer_bytes = 1u << 20;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t slow_consumer_disconnects = 0;
  uint64_t poisoned_streams = 0;   // Oversized length prefix → hangup.
  // Frames the loop thread has routed: admitted, shed or rejected.
  uint64_t frames_received = 0;
  uint64_t unknown_frames = 0;     // Unroutable magic → kRejected.
  size_t peak_conn_buffer_bytes = 0;  // Largest outbound backlog seen.
};

class IngestServer {
 public:
  IngestServer(FrameHandler* handler, ServerConfig config);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  // Binds, spawns the loop thread and workers. False when the bind or
  // epoll setup fails.
  bool Start();
  void Stop();

  uint16_t port() const { return port_; }

  // Blocks until every admitted frame has been handled and its response
  // handed to the loop thread. Pair with paused workers to build
  // deterministic overload states.
  void Drain();

  // Freezes/unfreezes the worker pool (queue keeps admitting per
  // policy). Deterministic overload testing: pause, offer N frames,
  // observe exactly the admission policy's verdicts, unpause.
  void PauseWorkers(bool paused);

  AdmissionStats admission_stats() const { return queue_.stats(); }
  ServerStats stats() const;

  // Blocks until `done(stats())` holds or `timeout` passes; false on
  // timeout. The predicate is re-checked whenever frames_received grows
  // (a frame counts once it is admitted, shed or rejected, so
  // admission_stats() already counts it) or slow_consumer_disconnects
  // grows; waiting on any other field can only time out. `done` runs
  // under the stats lock, so it must not call back into the server.
  // The barrier for "send, then assert on stats" without racing the
  // loop thread.
  bool WaitForStats(const std::function<bool(const ServerStats&)>& done,
                    std::chrono::milliseconds timeout) const;
  bool in_backpressure() const { return queue_.in_backpressure(); }

 private:
  struct Conn {
    ScopedFd fd;
    FrameDecoder decoder;
    std::vector<uint8_t> outbuf;  // Wrapped frames awaiting write.
    size_t out_sent = 0;          // Prefix of outbuf already written.
    bool want_write = false;
  };

  void LoopThread();
  void WorkerThread();
  void HandleReadable(uint64_t conn_id, Conn& conn);
  void RouteFrame(uint64_t conn_id, Conn& conn, std::vector<uint8_t> frame);
  void QueueResponse(uint64_t conn_id, std::vector<uint8_t> frame);
  void EnqueueOutbound(uint64_t conn_id, Conn& conn,
                       const std::vector<uint8_t>& frame);
  void FlushOutbound(uint64_t conn_id, Conn& conn);
  void CloseConn(uint64_t conn_id);
  void UpdateWantWrite(uint64_t conn_id, Conn& conn);

  FrameHandler* handler_;
  ServerConfig config_;
  AdmissionQueue queue_;

  std::optional<TcpListener> listener_;
  uint16_t port_ = 0;
  Epoll epoll_;
  WakeFd wake_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  // Loop-thread-only connection table (epoll data = conn id).
  std::map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = wakefd.

  // Worker → loop thread handoff.
  std::mutex response_mu_;
  std::deque<std::pair<uint64_t, std::vector<uint8_t>>> responses_;

  // Admitted-but-unfinished frames, for Drain().
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  uint64_t inflight_ = 0;

  mutable std::mutex stats_mu_;
  // frames_received or slow_consumer_disconnects grew.
  mutable std::condition_variable stats_cv_;
  ServerStats stats_;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_INGEST_SERVER_H_
