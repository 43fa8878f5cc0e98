#include "mergeable/server/client.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "mergeable/util/check.h"

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
  // [u32 stream length][frame]: the stream peer's prefix, then the frame.
  uint8_t prefix[4];
  const uint32_t length =
      internal::HostToLittle32(static_cast<uint32_t>(frame.size()));
  std::memcpy(prefix, &length, sizeof(length));
  const size_t total = sizeof(prefix) + frame.size();
  size_t sent = 0;
  while (sent < total) {
    const size_t in_prefix = std::min(sent, sizeof(prefix));
    const size_t in_frame = sent - in_prefix;
    iovec iov[2] = {
        {prefix + in_prefix, sizeof(prefix) - in_prefix},
        {const_cast<uint8_t*>(frame.data()) + in_frame,
         frame.size() - in_frame}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
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
  if (open_batch_.count() == 0) {
    oldest_buffered_ = std::chrono::steady_clock::now();
  }
  open_batch_.Add(report.shard_id, report.epoch, report.payload.data(),
                  report.payload.size());
  bool due = open_batch_.count() >= batch_options_.max_reports ||
             open_batch_.body_size() >= batch_options_.max_bytes;
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
  const uint32_t count = open_batch_.count();
  if (count == 0) return BatchOutcome{};
  return SendBatchFrame(
      std::exchange(open_batch_, BatchFrameWriter()).Seal(), count, policy);
}

BatchOutcome IngestClient::SendBatch(std::vector<WireReport> reports,
                                     const BackoffPolicy& policy) {
  if (reports.empty()) return BatchOutcome{};
  const auto count = static_cast<uint32_t>(reports.size());
  return SendBatchFrame(EncodeBatchFrame({std::move(reports)}), count,
                        policy);
}

BatchOutcome IngestClient::SendBatchFrame(std::vector<uint8_t> frame,
                                          uint32_t count,
                                          const BackoffPolicy& policy) {
  BatchOutcome outcome;
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
    if (!SendFrame(frame)) {
      Reconnect();
      continue;
    }
    ++stats_.batches_sent;
    stats_.batch_reports_sent += count;
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
      stats_.retry_after_nacks += count;
      retry_after_hint = verdict->retry_after_ms;
      continue;
    }
    if (verdict->batch_code != ControlCode::kAccepted) {
      outcome.rejected += count;
      outcome.status = SendStatus::kRejected;
      return outcome;
    }
    if (verdict->codes.size() != count) {
      // A verdict for some other batch shape — desynchronized stream.
      Reconnect();
      continue;
    }
    std::vector<uint32_t> retry;  // Records the server asked to resend.
    retry_after_hint = 0;
    for (uint32_t i = 0; i < count; ++i) {
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
          retry.push_back(i);
          break;
      }
    }
    if (retry.empty()) {
      outcome.status = outcome.rejected > 0 ? SendStatus::kRejected
                                            : SendStatus::kAccepted;
      return outcome;
    }
    // The sub-batch is cut from views of the frame just sent, which this
    // client sealed itself and so always views.
    std::vector<BatchRecordView> records;
    MERGEABLE_CHECK(ViewBatchFrame(frame, &records));
    BatchFrameWriter resend;
    for (const uint32_t i : retry) {
      resend.Add(records[i].shard_id, records[i].epoch, records[i].payload,
                 records[i].payload_len);
    }
    count = resend.count();
    frame = std::move(resend).Seal();
  }
  outcome.exhausted = count;
  outcome.status = SendStatus::kExhausted;
  return outcome;
}

std::optional<WireAnswer> IngestClient::Query(const WireQuery& query) {
  if (!fd_.valid() && !Reconnect()) return std::nullopt;
  if (!SendFrame(EncodeQueryFrame(query))) return std::nullopt;
  std::optional<std::vector<uint8_t>> response = ReadFrame();
  if (!response.has_value()) return std::nullopt;
  return DecodeAnswerFrame(*response);
}

}  // namespace mergeable
