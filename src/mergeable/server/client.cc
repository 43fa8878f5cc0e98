#include "mergeable/server/client.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace mergeable {

IngestClient::IngestClient(uint16_t port, uint64_t recv_timeout_ms)
    : port_(port), recv_timeout_ms_(recv_timeout_ms),
      fd_(ConnectLoopback(port, recv_timeout_ms)) {}

bool IngestClient::Reconnect() {
  fd_ = ScopedFd(ConnectLoopback(port_, recv_timeout_ms_));
  decoder_ = FrameDecoder();
  ++stats_.reconnects;
  return fd_.valid();
}

bool IngestClient::SendFrame(const std::vector<uint8_t>& frame) {
  if (!fd_.valid()) return false;
  const std::vector<uint8_t> wrapped = WrapFrame(frame);
  size_t sent = 0;
  while (sent < wrapped.size()) {
    const ssize_t n = ::send(fd_.get(), wrapped.data() + sent,
                             wrapped.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    ++stats_.transport_errors;
    return false;
  }
  ++stats_.frames_sent;
  return true;
}

std::optional<std::vector<uint8_t>> IngestClient::ReadFrame() {
  if (!fd_.valid()) return std::nullopt;
  while (true) {
    if (std::optional<std::vector<uint8_t>> frame = decoder_.Next()) {
      return frame;
    }
    if (decoder_.poisoned()) return std::nullopt;
    uint8_t chunk[65536];
    const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (got > 0) {
      if (!decoder_.Feed(chunk, static_cast<size_t>(got))) {
        return std::nullopt;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    // Timeout (EAGAIN under SO_RCVTIMEO), hangup, or error.
    ++stats_.transport_errors;
    return std::nullopt;
  }
}

void IngestClient::set_batch_options(BatchOptions options) {
  if (options.max_reports == 0) options.max_reports = 1;
  if (options.max_reports > kMaxBatchReports) {
    options.max_reports = kMaxBatchReports;
  }
  batch_options_ = options;
}

std::optional<BatchOutcome> IngestClient::BufferReport(
    WireReport report, const BackoffPolicy& policy) {
  if (buffered_.empty()) {
    // The count slot is patched at flush time; records append after it.
    batch_body_.assign(4, 0);
    oldest_buffered_ = std::chrono::steady_clock::now();
  }
  // Append the record in place (u64 shard, u64 epoch, u32 len, payload)
  // — this is the replay hot path, so no per-record scratch writer.
  const uint64_t shard_le = internal::HostToLittle64(report.shard_id);
  const uint64_t epoch_le = internal::HostToLittle64(report.epoch);
  const uint32_t len_le =
      internal::HostToLittle32(static_cast<uint32_t>(report.payload.size()));
  const size_t base = batch_body_.size();
  batch_body_.resize(base + 20 + report.payload.size());
  uint8_t* out = batch_body_.data() + base;
  std::memcpy(out, &shard_le, 8);
  std::memcpy(out + 8, &epoch_le, 8);
  std::memcpy(out + 16, &len_le, 4);
  if (!report.payload.empty()) {
    std::memcpy(out + 20, report.payload.data(), report.payload.size());
  }
  buffered_.push_back(std::move(report));

  bool due = buffered_.size() >= batch_options_.max_reports ||
             batch_body_.size() >= batch_options_.max_bytes;
  if (!due && batch_options_.flush_deadline_ms > 0) {
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - oldest_buffered_);
    due = static_cast<uint64_t>(age.count()) >=
          batch_options_.flush_deadline_ms;
  }
  if (!due) return std::nullopt;
  return Flush(policy);
}

BatchOutcome IngestClient::Flush(const BackoffPolicy& policy) {
  if (buffered_.empty()) return BatchOutcome{};
  const uint32_t count =
      internal::HostToLittle32(static_cast<uint32_t>(buffered_.size()));
  std::memcpy(batch_body_.data(), &count, sizeof(count));
  std::vector<WireReport> reports = std::move(buffered_);
  std::vector<uint8_t> body = std::move(batch_body_);
  buffered_.clear();
  batch_body_.clear();
  return SendBatchInternal(std::move(reports), policy, &body);
}

BatchOutcome IngestClient::SendBatch(std::vector<WireReport> reports,
                                     const BackoffPolicy& policy) {
  return SendBatchInternal(std::move(reports), policy, nullptr);
}

BatchOutcome IngestClient::SendBatchInternal(
    std::vector<WireReport> reports, const BackoffPolicy& policy,
    const std::vector<uint8_t>* body) {
  BatchOutcome outcome;
  if (reports.empty()) return outcome;
  std::vector<WireReport> remaining = std::move(reports);
  // The preassembled body matches `remaining` until a partial verdict
  // shrinks it to a retry sub-batch; transport faults resend it as-is.
  bool preassembled = body != nullptr;
  uint64_t retry_after_hint = 0;
  for (uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      const uint64_t wait =
          std::max(policy.BackoffBefore(attempt), retry_after_hint);
      if (wait > 0) {
        stats_.slept_ms += wait;
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      }
    }
    if (!fd_.valid() && !Reconnect()) continue;
    const bool sent = preassembled
                          ? SendBatchBody(*body)
                          : SendFrame(EncodeBatchFrame({remaining}));
    if (!sent) {
      Reconnect();
      continue;
    }
    ++stats_.batches_sent;
    stats_.batch_reports_sent += remaining.size();
    std::optional<std::vector<uint8_t>> response = ReadFrame();
    if (!response.has_value()) {
      Reconnect();
      continue;
    }
    std::optional<WireBatchVerdict> verdict =
        DecodeBatchVerdictFrame(*response);
    if (!verdict.has_value()) continue;  // Not a verdict; try again.
    if (verdict->batch_code == ControlCode::kRetryAfter) {
      // The whole frame was shed at admission: everything outstanding
      // retries after the hint.
      ++stats_.batch_shed_nacks;
      stats_.retry_after_nacks += remaining.size();
      retry_after_hint = verdict->retry_after_ms;
      continue;
    }
    if (verdict->batch_code != ControlCode::kAccepted) {
      outcome.rejected += remaining.size();
      outcome.status = SendStatus::kRejected;
      return outcome;
    }
    if (verdict->codes.size() != remaining.size()) {
      // A verdict for some other batch shape — desynchronized stream.
      Reconnect();
      continue;
    }
    std::vector<WireReport> retry;
    retry_after_hint = 0;
    for (size_t i = 0; i < verdict->codes.size(); ++i) {
      switch (verdict->codes[i]) {
        case ControlCode::kAccepted:
          ++outcome.accepted;
          break;
        case ControlCode::kDuplicate:
          ++outcome.accepted;
          ++stats_.duplicates;
          break;
        case ControlCode::kRejected:
          ++outcome.rejected;
          break;
        case ControlCode::kRetryAfter:
          ++stats_.retry_after_nacks;
          retry_after_hint =
              std::max(retry_after_hint, verdict->retry_after_ms);
          retry.push_back(std::move(remaining[i]));
          break;
      }
    }
    if (retry.empty()) {
      outcome.status = outcome.rejected > 0 ? SendStatus::kRejected
                                            : SendStatus::kAccepted;
      return outcome;
    }
    remaining = std::move(retry);
    preassembled = false;  // The sub-batch needs a fresh encoding.
  }
  outcome.exhausted = remaining.size();
  outcome.status = SendStatus::kExhausted;
  return outcome;
}

bool IngestClient::SendBatchBody(const std::vector<uint8_t>& body) {
  if (!fd_.valid()) return false;
  // [u32 stream length | u32 magic | u32 body_len] [body] [u64 checksum]
  // — the three pieces the stream peer reassembles into one BAT1 frame.
  ByteWriter head;
  head.PutU32(static_cast<uint32_t>(body.size()) + 16);  // Frame bytes.
  head.PutU32(BatchFrameMagic());
  head.PutU32(static_cast<uint32_t>(body.size()));
  ByteWriter tail;
  tail.PutU64(BatchFrameBodyChecksum(body));
  const std::vector<uint8_t>& head_bytes = head.bytes();
  const std::vector<uint8_t>& tail_bytes = tail.bytes();
  const size_t total = head_bytes.size() + body.size() + tail_bytes.size();
  size_t sent = 0;
  while (sent < total) {
    iovec iov[3];
    int iovcnt = 0;
    size_t skip = sent;
    const auto add = [&](const uint8_t* data, size_t len) {
      if (skip >= len) {
        skip -= len;
        return;
      }
      iov[iovcnt].iov_base = const_cast<uint8_t*>(data + skip);
      iov[iovcnt].iov_len = len - skip;
      skip = 0;
      ++iovcnt;
    };
    add(head_bytes.data(), head_bytes.size());
    add(body.data(), body.size());
    add(tail_bytes.data(), tail_bytes.size());
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ++stats_.transport_errors;
    return false;
  }
  ++stats_.frames_sent;
  return true;
}

std::optional<WireAnswer> IngestClient::Query(const WireQuery& query) {
  if (!fd_.valid() && !Reconnect()) return std::nullopt;
  if (!SendFrame(EncodeQueryFrame(query))) return std::nullopt;
  std::optional<std::vector<uint8_t>> response = ReadFrame();
  if (!response.has_value()) return std::nullopt;
  return DecodeAnswerFrame(*response);
}

}  // namespace mergeable
