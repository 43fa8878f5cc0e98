#include "mergeable/server/frame_stream.h"

#include <cstring>

#include "mergeable/util/bytes.h"

namespace mergeable {

namespace {

// The u32-LE stream length prefix at `p`.
uint32_t PrefixAt(const uint8_t* p) {
  uint32_t length;
  std::memcpy(&length, p, sizeof(length));
  return internal::LittleToHost32(length);
}

}  // namespace

void AppendWrappedFrame(std::vector<uint8_t>& out,
                        const std::vector<uint8_t>& frame) {
  const uint32_t length =
      internal::HostToLittle32(static_cast<uint32_t>(frame.size()));
  const auto* prefix = reinterpret_cast<const uint8_t*>(&length);
  out.insert(out.end(), prefix, prefix + sizeof(length));
  out.insert(out.end(), frame.begin(), frame.end());
}

bool FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (poisoned_) return false;
  buffer_.insert(buffer_.end(), data, data + len);
  // Validate eagerly so a hostile length prefix is rejected before any
  // caller asks for the frame (and before its payload accumulates).
  if (buffer_.size() - consumed_ >= 4 &&
      PrefixAt(buffer_.data() + consumed_) > kMaxFrameBytes) {
    poisoned_ = true;
    return false;
  }
  return true;
}

std::optional<std::vector<uint8_t>> FrameDecoder::Next() {
  if (poisoned_) return std::nullopt;
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const uint8_t* p = buffer_.data() + consumed_;
  const uint32_t frame_len = PrefixAt(p);
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
