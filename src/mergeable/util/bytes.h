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
#include <type_traits>
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

template <typename Word>
concept CounterWord =
    std::same_as<Word, uint64_t> || std::same_as<Word, int64_t>;

// A cell as the counter-array codec packs it: an unsigned cell as it
// is, a signed one zigzagged (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...) so
// that a small magnitude of either sign stays narrow.
inline uint64_t PackCell(uint64_t value) { return value; }
inline uint64_t PackCell(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
template <CounterWord Word>
Word UnpackCell(uint64_t cell) {
  if constexpr (std::is_signed_v<Word>) {
    return static_cast<int64_t>(cell >> 1) ^ -static_cast<int64_t>(cell & 1);
  } else {
    return cell;
  }
}

// `value` in little-endian byte order (an involution, so it also reads).
template <std::unsigned_integral Narrow>
Narrow ToLittle(Narrow value) {
  if constexpr (kHostIsLittleEndian || sizeof(Narrow) == 1) {
    return value;
  } else if constexpr (sizeof(Narrow) == 2) {
    return static_cast<uint16_t>((value >> 8) | (value << 8));
  } else if constexpr (sizeof(Narrow) == 4) {
    return ByteSwap32(value);
  } else {
    return ByteSwap64(value);
  }
}

template <std::unsigned_integral Narrow>
Narrow LoadLittle(const uint8_t* at) {
  Narrow value;
  std::memcpy(&value, at, sizeof(value));
  return ToLittle(value);
}

// The narrowest counter-array cell width, in bytes, that holds `bits`.
inline uint8_t CellWidthFor(uint64_t bits) {
  return bits <= 0xff ? 1 : bits <= 0xffff ? 2 : bits <= 0xffffffff ? 4 : 8;
}

// Calls `f(Narrow{})` with the unsigned type of a counter-array cell
// width (1, 2, 4 or 8 bytes). The switch sits outside the loops `f`
// runs, so each of them is a fixed-width loop the compiler vectorizes.
template <typename F>
decltype(auto) WithCellType(uint8_t width, F&& f) {
  switch (width) {
    case 1:
      return f(uint8_t{});
    case 2:
      return f(uint16_t{});
    case 4:
      return f(uint32_t{});
    default:
      return f(uint64_t{});
  }
}

// The OR of `count` packed cells (PackCell), whose highest bit sets the
// cell width. It runs in independent lanes, a fixed-count inner loop
// that GCC vectorizes even at -O2, where a one-accumulator reduction
// stays scalar.
template <CounterWord Word>
uint64_t OrPackedCells(const Word* cells, size_t count) {
  constexpr size_t kLanes = 16;
  uint64_t lanes[kLanes] = {};
  size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) lanes[j] |= PackCell(cells[i + j]);
  }
  uint64_t bits = 0;
  for (; i < count; ++i) bits |= PackCell(cells[i]);
  for (uint64_t lane : lanes) bits |= lane;
  return bits;
}

// The two loops of the counter-array codec that do not go through a
// vector, one instance per width. Bounds and pointers arrive as
// arguments, so the stores cannot alias them and each loop vectorizes
// at -O3 (GCC's -O2 cost model leaves them scalar).
//
// `count` cells packed (PackCell) into little-endian `Narrow`s at `out`;
// every cell must fit.
template <std::unsigned_integral Narrow, CounterWord Word>
void NarrowCells(const Word* cells, size_t count, uint8_t* out) {
  for (size_t i = 0; i < count; ++i) {
    const Narrow cell = ToLittle(static_cast<Narrow>(PackCell(cells[i])));
    std::memcpy(out + i * sizeof(Narrow), &cell, sizeof(Narrow));
  }
}
// into[i] += the little-endian `Narrow` cell i at `cells`, modulo 2^64.
template <std::unsigned_integral Narrow>
void AddCells(const uint8_t* cells, size_t count, uint64_t* into) {
  for (size_t i = 0; i < count; ++i) {
    into[i] += LoadLittle<Narrow>(cells + i * sizeof(Narrow));
  }
}

// Forward iterator over the little-endian `Narrow` cells of a byte
// range, each loaded with memcpy (no alignment needed) and widened to
// `Word` (unzigzagged when `Word` is signed). A vector built from a
// pair of these is allocated once and filled straight from the bytes.
template <std::unsigned_integral Narrow, CounterWord Word = uint64_t>
class LittleCellIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Word;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Word;

  LittleCellIterator() = default;
  explicit LittleCellIterator(const uint8_t* at) : at_(at) {}

  Word operator*() const { return UnpackCell<Word>(LoadLittle<Narrow>(at_)); }
  LittleCellIterator& operator++() {
    at_ += sizeof(Narrow);
    return *this;
  }
  LittleCellIterator operator++(int) {
    LittleCellIterator before = *this;
    ++*this;
    return before;
  }
  bool operator==(const LittleCellIterator&) const = default;

 private:
  const uint8_t* at_ = nullptr;
};

}  // namespace internal

// The little-endian word at `bytes` (any alignment).
inline uint64_t LoadLittle64(const uint8_t* bytes) {
  return internal::LoadLittle<uint64_t>(bytes);
}

// A counter array in place in its encoded bytes (see
// ByteWriter::PutCounterArray), as ByteReader::GetCounterView found it
// valid.
class CounterArrayView {
 public:
  CounterArrayView() = default;
  CounterArrayView(uint8_t width, const uint8_t* cells, size_t size)
      : width_(width), cells_(cells), size_(size) {}

  // into[i] += cell i for each unsigned cell, modulo 2^64 as Merge
  // adds: the zero-copy merge of a Count-Min payload.
  void AddTo(uint64_t* into) const {
    internal::WithCellType(width_, [&]<typename Narrow>(Narrow) {
      internal::AddCells<Narrow>(cells_, size_, into);
    });
  }

  // Replaces *out with the cells, widened; the vector is allocated at
  // their count and filled from the bytes only, with no zero-fill first.
  template <internal::CounterWord Word>
  void AssignTo(std::vector<Word>* out) const {
    internal::WithCellType(width_, [&]<typename Narrow>(Narrow) {
      using Cells = internal::LittleCellIterator<Narrow, Word>;
      out->assign(Cells(cells_), Cells(cells_ + size_ * sizeof(Narrow)));
    });
  }

 private:
  uint8_t width_ = 8;
  const uint8_t* cells_ = nullptr;
  size_t size_ = 0;
};

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
  // step. For arrays of full-width words (Bloom bits, KMV hashes);
  // counters go through PutCounterArray.
  void PutU64Array(std::span<const uint64_t> values) {
    if constexpr (internal::kHostIsLittleEndian) {
      PutRaw(values.data(), values.size_bytes());
    } else {
      for (uint64_t value : values) PutU64(value);
    }
  }

  // Writes a counter array in the packed counter-array format: a u8 cell
  // width w in {1, 2, 4, 8}, then each cell little-endian in w bytes.
  // The count is not written; the enclosing format carries it. w is the
  // smallest width that holds every cell, signed cells zigzagged first,
  // so one state always has one encoding. Linear sketches' counters are
  // most of their bytes and mostly small.
  void PutCounterArray(std::span<const uint64_t> cells) {
    PutCells(cells);
  }
  void PutCounterArray(std::span<const int64_t> cells) { PutCells(cells); }

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
  template <internal::CounterWord Word>
  void PutCells(std::span<const Word> cells) {
    const uint8_t width = internal::CellWidthFor(
        internal::OrPackedCells(cells.data(), cells.size()));
    const size_t at = bytes_.size() + 1;
    bytes_.resize(at + cells.size() * width);
    bytes_[at - 1] = width;
    internal::WithCellType(width, [&]<typename Narrow>(Narrow) {
      internal::NarrowCells<Narrow>(cells.data(), cells.size(),
                                    bytes_.data() + at);
    });
  }

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
  // (or as many PutU64 calls). The vector is allocated at that size and
  // filled from the input only, with no zero-fill first; the Bloom and
  // KMV decoders build their word arrays with it. The length is checked
  // before anything is read: on a short read it returns false, and
  // neither the position nor *out changes.
  bool GetWordVector(size_t count, std::vector<uint64_t>* out) {
    if (count > remaining() / sizeof(uint64_t)) return false;
    const uint8_t* begin = data_ + position_;
    position_ += count * sizeof(uint64_t);
    using Words = internal::LittleCellIterator<uint64_t>;
    out->assign(Words(begin), Words(data_ + position_));
    return true;
  }

  // Takes the next counter array of `count` cells written by
  // PutCounterArray, in place. The width byte must be 1, 2, 4 or 8 (a
  // wider one than needed is accepted) and the cells must fit in the
  // input; both are checked before anything else happens, so a count
  // the bytes cannot back is refused without allocating. On failure it
  // returns false and neither the position nor *view changes.
  bool GetCounterView(size_t count, CounterArrayView* view) {
    if (remaining() < 1) return false;
    const uint8_t width = data_[position_];
    if (width != 1 && width != 2 && width != 4 && width != 8) return false;
    if (count > (remaining() - 1) / width) return false;
    *view = CounterArrayView(width, data_ + position_ + 1, count);
    position_ += 1 + count * width;
    return true;
  }

  // Replaces *out with the next counter array of `count` cells (see
  // GetCounterView), widened: at most 8 bytes of counters per input
  // byte, allocated once, with no zero-fill first.
  template <internal::CounterWord Word>
  bool GetCounterVector(size_t count, std::vector<Word>* out) {
    CounterArrayView view;
    if (!GetCounterView(count, &view)) return false;
    view.AssignTo(out);
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
