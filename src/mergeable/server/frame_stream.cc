#include "mergeable/server/frame_stream.h"

#include <algorithm>
#include <cstring>
#include <utility>

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
  buffered_ += len;
  while (len > 0) {
    if (!frame_len_.has_value()) {
      const size_t take = std::min(sizeof(prefix_) - prefix_bytes_, len);
      std::memcpy(prefix_ + prefix_bytes_, data, take);
      prefix_bytes_ += take;
      data += take;
      len -= take;
      if (prefix_bytes_ < sizeof(prefix_)) break;
      prefix_bytes_ = 0;
      const uint32_t length = PrefixAt(prefix_);
      // Checked before anything is reserved for it: a hostile length
      // is refused on sight.
      if (length > kMaxFrameBytes) {
        poisoned_ = true;
        return false;
      }
      partial_.reserve(length);
      frame_len_ = length;
    }
    const size_t take = std::min<size_t>(*frame_len_ - partial_.size(), len);
    partial_.insert(partial_.end(), data, data + take);
    data += take;
    len -= take;
    if (partial_.size() == *frame_len_) {
      complete_.push_back(std::exchange(partial_, {}));
      frame_len_.reset();
    }
  }
  return true;
}

std::optional<std::vector<uint8_t>> FrameDecoder::Next() {
  if (poisoned_ || complete_.empty()) return std::nullopt;
  std::vector<uint8_t> frame = std::move(complete_.front());
  complete_.pop_front();
  buffered_ -= sizeof(prefix_) + frame.size();
  return frame;
}

}  // namespace mergeable
