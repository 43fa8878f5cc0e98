// Little-endian byte encoding helpers for summary serialization.
//
// Summaries exist to be shipped between machines and merged, so every
// major summary supports EncodeTo / DecodeFrom using these helpers.
// The wire format is little-endian regardless of the host: writers
// byte-swap on big-endian machines and readers swap back, so bytes
// produced on any host decode on any other. ByteReader is
// bounds-checked and never aborts on malformed input: reads report
// failure and decoders return std::nullopt, because bytes from the
// network are data, not programmer error.

#ifndef MERGEABLE_UTIL_BYTES_H_
#define MERGEABLE_UTIL_BYTES_H_

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <vector>

namespace mergeable {
namespace internal {

constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

inline uint32_t ByteSwap32(uint32_t value) {
  return ((value & 0x000000ffu) << 24) | ((value & 0x0000ff00u) << 8) |
         ((value & 0x00ff0000u) >> 8) | ((value & 0xff000000u) >> 24);
}

inline uint64_t ByteSwap64(uint64_t value) {
  return (static_cast<uint64_t>(ByteSwap32(static_cast<uint32_t>(value)))
          << 32) |
         ByteSwap32(static_cast<uint32_t>(value >> 32));
}

inline uint32_t HostToLittle32(uint32_t value) {
  return kHostIsLittleEndian ? value : ByteSwap32(value);
}
inline uint64_t HostToLittle64(uint64_t value) {
  return kHostIsLittleEndian ? value : ByteSwap64(value);
}
// The swaps are involutions, so reading reuses them.
inline uint32_t LittleToHost32(uint32_t value) { return HostToLittle32(value); }
inline uint64_t LittleToHost64(uint64_t value) { return HostToLittle64(value); }

// Forward iterator over the little-endian words of a byte range, each
// loaded with memcpy (no alignment needed). A vector built from a pair
// of these is allocated once and filled straight from the bytes.
class LittleWordIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = uint64_t;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = uint64_t;

  LittleWordIterator() = default;
  explicit LittleWordIterator(const uint8_t* at) : at_(at) {}

  uint64_t operator*() const {
    uint64_t value;
    std::memcpy(&value, at_, sizeof(value));
    return LittleToHost64(value);
  }
  LittleWordIterator& operator++() {
    at_ += sizeof(uint64_t);
    return *this;
  }
  LittleWordIterator operator++(int) {
    LittleWordIterator before = *this;
    ++*this;
    return before;
  }
  bool operator==(const LittleWordIterator&) const = default;

 private:
  const uint8_t* at_ = nullptr;
};

}  // namespace internal

// The little-endian word at `bytes` (any alignment).
inline uint64_t LoadLittle64(const uint8_t* bytes) {
  return *internal::LittleWordIterator(bytes);
}

class ByteWriter {
 public:
  void PutU32(uint32_t value) {
    value = internal::HostToLittle32(value);
    PutRaw(&value, sizeof(value));
  }
  void PutU64(uint64_t value) {
    value = internal::HostToLittle64(value);
    PutRaw(&value, sizeof(value));
  }
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutDouble(double value) { PutU64(std::bit_cast<uint64_t>(value)); }

  // Writes the words as one little-endian block: the bytes equal one
  // PutU64 per element, but a little-endian host copies them in one
  // step. Counter arrays are most of a linear sketch's encoding.
  void PutU64Array(std::span<const uint64_t> values) {
    if constexpr (internal::kHostIsLittleEndian) {
      PutRaw(values.data(), values.size_bytes());
    } else {
      for (uint64_t value : values) PutU64(value);
    }
  }
  // Signed and unsigned words share a representation (and may alias).
  void PutI64Array(std::span<const int64_t> values) {
    PutU64Array({reinterpret_cast<const uint64_t*>(values.data()),
                 values.size()});
  }

  // Grows the buffer to hold `total` bytes, so a caller that knows the
  // final size builds it in one allocation.
  void Reserve(size_t total) { bytes_.reserve(total); }

  // Writes `size` raw bytes prefixed by a u32 length, so the matching
  // GetBytes can frame variable-length payloads (e.g. nested encodings).
  // Payloads are limited to 4 GiB by the u32 prefix; callers framing
  // summaries are far below that.
  void PutBytes(const uint8_t* data, size_t size) {
    PutU32(static_cast<uint32_t>(size));
    PutRaw(data, size);
  }
  void PutBytes(const std::vector<uint8_t>& bytes) {
    PutBytes(bytes.data(), bytes.size());
  }

  // Overwrites the u32 written at byte `offset` (a length or count slot).
  void PatchU32(size_t offset, uint32_t value) {
    value = internal::HostToLittle32(value);
    std::memcpy(bytes_.data() + offset, &value, sizeof(value));
  }

  // Writes `size` bytes as they are, with no length prefix: for a
  // payload whose length the enclosing format already carries.
  void PutRaw(const void* data, size_t size) {
    const auto* begin = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), begin, begin + size);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool GetU32(uint32_t* value) {
    if (!GetRaw(value, sizeof(*value))) return false;
    *value = internal::LittleToHost32(*value);
    return true;
  }
  bool GetU64(uint64_t* value) {
    if (!GetRaw(value, sizeof(*value))) return false;
    *value = internal::LittleToHost64(*value);
    return true;
  }
  bool GetI64(int64_t* value) {
    uint64_t raw = 0;
    if (!GetU64(&raw)) return false;
    *value = static_cast<int64_t>(raw);
    return true;
  }
  bool GetDouble(double* value) {
    uint64_t raw = 0;
    if (!GetU64(&raw)) return false;
    *value = std::bit_cast<double>(raw);
    return true;
  }

  // Replaces *out with the next `count` words written by PutU64Array
  // or PutI64Array (or as many PutU64/PutI64 calls). The vector is
  // allocated at that size and filled from the input only, with no
  // zero-fill first; decoders build their counter arrays with it. The
  // length is checked before anything is read: on a short read it
  // returns false, and neither the position nor *out changes.
  template <typename Word>
    requires(std::same_as<Word, uint64_t> || std::same_as<Word, int64_t>)
  bool GetWordVector(size_t count, std::vector<Word>* out) {
    if (count > remaining() / sizeof(uint64_t)) return false;
    const uint8_t* begin = data_ + position_;
    position_ += count * sizeof(uint64_t);
    out->assign(internal::LittleWordIterator(begin),
                internal::LittleWordIterator(data_ + position_));
    return true;
  }

  // Reads a PutBytes frame. The declared length is validated against the
  // remaining input before anything is allocated, so a corrupted length
  // prefix cannot trigger a multi-gigabyte allocation.
  bool GetBytes(std::vector<uint8_t>* out) {
    uint32_t length = 0;
    if (!GetU32(&length)) return false;
    if (remaining() < length) return false;
    out->assign(data_ + position_, data_ + position_ + length);
    position_ += length;
    return true;
  }

  // Advances past `size` bytes without reading them; false (position
  // unchanged) if fewer remain. Zero-copy readers pair this with
  // remaining() to take spans into the underlying buffer.
  bool Skip(size_t size) {
    if (size_ - position_ < size) return false;
    position_ += size;
    return true;
  }

  // True when every byte has been consumed (decoders use this to reject
  // trailing garbage).
  bool Exhausted() const { return position_ == size_; }

  size_t remaining() const { return size_ - position_; }

 private:
  bool GetRaw(void* out, size_t size) {
    if (size_ - position_ < size) return false;
    std::memcpy(out, data_ + position_, size);
    position_ += size;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t position_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_UTIL_BYTES_H_
