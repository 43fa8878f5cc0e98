#include "mergeable/server/frame_stream.h"

#include <cstring>

namespace mergeable {

std::vector<uint8_t> WrapFrame(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> wrapped;
  wrapped.reserve(4 + frame.size());
  AppendWrappedFrame(wrapped, frame);
  return wrapped;
}

void AppendWrappedFrame(std::vector<uint8_t>& out,
                        const std::vector<uint8_t>& frame) {
  const uint32_t len = static_cast<uint32_t>(frame.size());
  const uint8_t prefix[4] = {static_cast<uint8_t>(len & 0xff),
                             static_cast<uint8_t>((len >> 8) & 0xff),
                             static_cast<uint8_t>((len >> 16) & 0xff),
                             static_cast<uint8_t>((len >> 24) & 0xff)};
  out.insert(out.end(), prefix, prefix + sizeof(prefix));
  out.insert(out.end(), frame.begin(), frame.end());
}

bool FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), data, data + len);
  // Validate eagerly so a hostile length prefix is rejected before any
  // caller asks for the frame (and before its payload accumulates).
  if (buffer_.size() - consumed_ >= 4) {
    const uint8_t* p = buffer_.data() + consumed_;
    uint32_t frame_len = static_cast<uint32_t>(p[0]) |
                         (static_cast<uint32_t>(p[1]) << 8) |
                         (static_cast<uint32_t>(p[2]) << 16) |
                         (static_cast<uint32_t>(p[3]) << 24);
    if (frame_len > kMaxFrameBytes) {
      poisoned_ = true;
      return false;
    }
  }
  return true;
}

std::optional<std::vector<uint8_t>> FrameDecoder::Next() {
  if (poisoned_) return std::nullopt;
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const uint8_t* p = buffer_.data() + consumed_;
  uint32_t frame_len = static_cast<uint32_t>(p[0]) |
                       (static_cast<uint32_t>(p[1]) << 8) |
                       (static_cast<uint32_t>(p[2]) << 16) |
                       (static_cast<uint32_t>(p[3]) << 24);
  if (frame_len > kMaxFrameBytes) {
    poisoned_ = true;
    return std::nullopt;
  }
  if (available < 4 + static_cast<size_t>(frame_len)) return std::nullopt;
  std::vector<uint8_t> frame(p + 4, p + 4 + frame_len);
  consumed_ += 4 + frame_len;
  // Compact once the dead prefix dominates, so a long-lived connection
  // does not hold its whole history in memory.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return frame;
}

}  // namespace mergeable
