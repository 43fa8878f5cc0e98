#include "mergeable/server/ingest_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "mergeable/aggregate/wire.h"

namespace mergeable {
namespace {

constexpr uint64_t kListenerData = 0;
constexpr uint64_t kWakeData = 1;

std::vector<uint8_t> RejectFrame() {
  WireControl reject;
  reject.code = ControlCode::kRejected;
  return EncodeControlFrame(reject);
}

}  // namespace

std::vector<uint8_t> FrameHandler::HandleReport(
    const std::vector<uint8_t>& /*frame*/) {
  return RejectFrame();
}

std::vector<uint8_t> FrameHandler::HandleTopology(
    const std::vector<uint8_t>& frame) {
  // Default: this handler does not manage per-epoch shard counts, so
  // the only honest verdict is a hard reject (retrying cannot help).
  WireControl reject;
  reject.code = ControlCode::kRejected;
  if (std::optional<WireTopology> topology = DecodeTopologyFrame(frame)) {
    reject.shard_id = topology->shard_count;
    reject.epoch = topology->effective_epoch;
  }
  return EncodeControlFrame(reject);
}

IngestServer::IngestServer(FrameHandler* handler, ServerConfig config)
    : handler_(handler), config_(config), queue_(config.admission) {}

IngestServer::~IngestServer() { Stop(); }

bool IngestServer::Start() {
  if (running_.load()) return true;
  listener_ = TcpListener::Bind(config_.port, config_.reuse_port);
  if (!listener_.has_value()) return false;
  if (!epoll_.valid() || !wake_.valid()) return false;
  if (!epoll_.Add(listener_->fd(), kListenerData, false)) return false;
  if (!epoll_.Add(wake_.fd(), kWakeData, false)) return false;
  port_ = listener_->port();
  running_.store(true);
  loop_thread_ = std::thread([this] { LoopThread(); });
  const size_t workers = config_.workers >= 1 ? config_.workers : 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  return true;
}

void IngestServer::Stop() {
  if (!running_.exchange(false)) return;
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  wake_.Signal();
  loop_thread_.join();
  conns_.clear();
  listener_.reset();
}

void IngestServer::Drain() {
  queue_.WaitUntilEmpty();
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void IngestServer::PauseWorkers(bool paused) { queue_.SetPaused(paused); }

ServerStats IngestServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool IngestServer::WaitForStats(
    const std::function<bool(const ServerStats&)>& done,
    std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(stats_mu_);
  return stats_cv_.wait_for(lock, timeout,
                            [this, &done] { return done(stats_); });
}

void IngestServer::WorkerThread() {
  while (true) {
    std::optional<WorkItem> item = queue_.Take();
    if (!item.has_value()) return;  // Closed and drained.
    std::vector<uint8_t> response;
    switch (item->kind) {
      case WorkKind::kQuery:
        response = handler_->HandleQuery(item->frame);
        break;
      case WorkKind::kBatch:
        response = handler_->HandleBatch(item->frame);
        break;
      case WorkKind::kTopology:
        response = handler_->HandleTopology(item->frame);
        break;
    }
    QueueResponse(item->conn_id, std::move(response));
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --inflight_;
      if (inflight_ == 0) inflight_cv_.notify_all();
    }
  }
}

void IngestServer::QueueResponse(uint64_t conn_id,
                                 std::vector<uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(response_mu_);
    responses_.emplace_back(conn_id, std::move(frame));
  }
  wake_.Signal();
}

void IngestServer::LoopThread() {
  while (true) {
    std::vector<EpollEvent> events = epoll_.Wait(50);
    if (!running_.load()) return;

    for (const EpollEvent& ev : events) {
      if (ev.data == kListenerData) {
        for (int fd = listener_->Accept(); fd >= 0;
             fd = listener_->Accept()) {
          const uint64_t conn_id = next_conn_id_++;
          Conn conn;
          conn.fd = ScopedFd(fd);
          if (!epoll_.Add(fd, conn_id, false)) continue;
          conns_.emplace(conn_id, std::move(conn));
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.connections_accepted;
        }
        continue;
      }
      if (ev.data == kWakeData) {
        wake_.Drain();
        continue;
      }
      auto it = conns_.find(ev.data);
      if (it == conns_.end()) continue;  // Response raced a hangup.
      if (ev.closed) {
        CloseConn(ev.data);
        continue;
      }
      if (ev.readable) HandleReadable(ev.data, it->second);
      // HandleReadable may have closed the connection; re-find.
      it = conns_.find(ev.data);
      if (it == conns_.end()) continue;
      if (ev.writable) {
        FlushOutbound(ev.data, it->second);
        it = conns_.find(ev.data);
        if (it == conns_.end()) continue;
        UpdateWantWrite(ev.data, it->second);
      }
    }

    // Ship worker responses produced since the last pass.
    std::deque<std::pair<uint64_t, std::vector<uint8_t>>> pending;
    {
      std::lock_guard<std::mutex> lock(response_mu_);
      pending.swap(responses_);
    }
    for (auto& [conn_id, frame] : pending) {
      auto conn_it = conns_.find(conn_id);
      if (conn_it == conns_.end()) continue;  // Client already left.
      EnqueueOutbound(conn_id, conn_it->second, frame);
    }
  }
}

void IngestServer::HandleReadable(uint64_t conn_id, Conn& conn) {
  uint8_t chunk[65536];
  while (true) {
    const ssize_t got = ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
    if (got > 0) {
      if (!conn.decoder.Feed(chunk, static_cast<size_t>(got))) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.poisoned_streams;
        }
        CloseConn(conn_id);
        return;
      }
      while (std::optional<std::vector<uint8_t>> frame =
                 conn.decoder.Next()) {
        RouteFrame(conn_id, conn, std::move(*frame));
        if (conns_.find(conn_id) == conns_.end()) return;
      }
      continue;
    }
    if (got == 0) {  // Orderly shutdown from the peer.
      CloseConn(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
}

void IngestServer::RouteFrame(uint64_t conn_id, Conn& conn,
                              std::vector<uint8_t> frame) {
  // Counted once the frame's fate is settled, on every path out, so
  // WaitForStats on frames_received is a barrier on admission stats too.
  struct CountOnExit {
    IngestServer* server;
    ~CountOnExit() {
      {
        std::lock_guard<std::mutex> lock(server->stats_mu_);
        ++server->stats_.frames_received;
      }
      server->stats_cv_.notify_all();
    }
  } count_on_exit{this};
  WorkItem item;
  item.conn_id = conn_id;
  // For a batch, only the (clamped) report count is peeked before the
  // frame is moved into the queue — a shed batch is never
  // payload-decoded, and is answered with one whole-batch verdict.
  switch (PeekFrameKind(frame)) {
    case FrameKind::kBatch: {
      item.kind = WorkKind::kBatch;
      uint32_t count = 0;
      PeekBatchReportCount(frame, &count);
      item.reports = count > 0 ? count : 1;
      break;
    }
    case FrameKind::kQuery:
      item.kind = WorkKind::kQuery;
      break;
    case FrameKind::kTopology:
      item.kind = WorkKind::kTopology;
      break;
    default: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.unknown_frames;
      }
      EnqueueOutbound(conn_id, conn, RejectFrame());
      return;
    }
  }
  item.frame = std::move(frame);
  const WorkKind item_kind = item.kind;

  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++inflight_;
  }
  const AdmitResult verdict = queue_.Offer(std::move(item));
  if (verdict == AdmitResult::kAdmitted) return;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_;
    if (inflight_ == 0) inflight_cv_.notify_all();
  }
  // Backpressure and over-cap sheds are retryable; a closed queue
  // (server shutting down) is not.
  const ControlCode code = verdict == AdmitResult::kClosed
                               ? ControlCode::kRejected
                               : ControlCode::kRetryAfter;
  if (item_kind == WorkKind::kBatch) {
    WireBatchVerdict nack;
    nack.batch_code = code;
    nack.retry_after_ms = queue_.retry_after_ms();
    EnqueueOutbound(conn_id, conn, EncodeBatchVerdictFrame(nack));
    return;
  }
  WireControl nack;
  nack.code = code;
  nack.retry_after_ms = queue_.retry_after_ms();
  EnqueueOutbound(conn_id, conn, EncodeControlFrame(nack));
}

void IngestServer::EnqueueOutbound(uint64_t conn_id, Conn& conn,
                                   const std::vector<uint8_t>& frame) {
  AppendWrappedFrame(conn.outbuf, frame);
  FlushOutbound(conn_id, conn);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  const size_t backlog = conn.outbuf.size() - conn.out_sent;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (backlog > stats_.peak_conn_buffer_bytes) {
      stats_.peak_conn_buffer_bytes = backlog;
    }
  }
  if (backlog > config_.max_conn_buffer_bytes) {
    // Slow consumer: the socket is not draining and the backlog has hit
    // the cap. Shedding the connection bounds server memory; the client
    // treats the hangup like any other transport fault and retries.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.slow_consumer_disconnects;
    }
    stats_cv_.notify_all();
    CloseConn(conn_id);
    return;
  }
  UpdateWantWrite(conn_id, conn);
}

void IngestServer::FlushOutbound(uint64_t conn_id, Conn& conn) {
  while (conn.out_sent < conn.outbuf.size()) {
    const ssize_t sent =
        ::send(conn.fd.get(), conn.outbuf.data() + conn.out_sent,
               conn.outbuf.size() - conn.out_sent, MSG_NOSIGNAL);
    if (sent > 0) {
      conn.out_sent += static_cast<size_t>(sent);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn_id);
    return;
  }
  if (conn.out_sent == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_sent = 0;
  } else if (conn.out_sent > 65536) {
    conn.outbuf.erase(conn.outbuf.begin(),
                      conn.outbuf.begin() +
                          static_cast<ptrdiff_t>(conn.out_sent));
    conn.out_sent = 0;
  }
}

void IngestServer::UpdateWantWrite(uint64_t conn_id, Conn& conn) {
  const bool want = conn.out_sent < conn.outbuf.size();
  if (want == conn.want_write) return;
  conn.want_write = want;
  epoll_.Mod(conn.fd.get(), conn_id, want);
}

void IngestServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_.Del(it->second.fd.get());
  conns_.erase(it);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_closed;
}

}  // namespace mergeable
