// Stream framing for the socket transport.
//
// A sealed frame (aggregate/wire.h) carries its body length, but that
// length is not checked until the checksum is, so a reader delimiting
// by it would lose its place at the first truncated or bit-flipped
// frame. The transport wraps every frame in a u32 little-endian length
// prefix of its own: a corrupt frame is still delimited, is rejected by
// its checksum, and the stream resumes at the next prefix. FrameDecoder
// reassembles frames from whatever chunks recv() produced, copying each
// frame's bytes once: straight into the frame's own vector, which Next()
// hands out by move. A length above kMaxFrameBytes poisons the decoder:
// a stream that claims a gigabyte frame is corrupt or hostile, and the
// server's only safe move is to hang up (nothing is allocated for the
// bogus length first).

#ifndef MERGEABLE_SERVER_FRAME_STREAM_H_
#define MERGEABLE_SERVER_FRAME_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace mergeable {

// Upper bound on one framed message. Summary payloads are a few KiB;
// 1 MiB leaves two orders of magnitude of headroom.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

// Appends `frame`, prefixed with its u32-LE length, to `out`.
void AppendWrappedFrame(std::vector<uint8_t>& out,
                        const std::vector<uint8_t>& frame);

class FrameDecoder {
 public:
  // Consumes raw stream bytes: each frame's bytes go into the frame's
  // vector, reserved at its announced length once the length prefix is
  // read and checked. Returns false (and poisons the decoder) when a
  // length prefix exceeds kMaxFrameBytes.
  bool Feed(const uint8_t* data, size_t len);

  // Extracts the next complete frame, or std::nullopt when more bytes
  // are needed (or the decoder is poisoned).
  std::optional<std::vector<uint8_t>> Next();

  bool poisoned() const { return poisoned_; }
  // Stream bytes fed but not yet handed out by Next(), prefixes included.
  size_t buffered_bytes() const { return buffered_; }

 private:
  std::deque<std::vector<uint8_t>> complete_;  // Oldest first.
  uint8_t prefix_[4] = {};
  size_t prefix_bytes_ = 0;  // Of the next frame's prefix, read so far.
  // `partial_`'s announced length, once its prefix is read.
  std::optional<uint32_t> frame_len_;
  std::vector<uint8_t> partial_;
  size_t buffered_ = 0;
  bool poisoned_ = false;
};

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_FRAME_STREAM_H_
