// The durable store's manifest: (stream, level, index) -> where the
// latest intact copy of that record sits in the segment log.
//
// The manifest is the one part of the store's RAM that grows with
// history (DESIGN.md §12.2), so it is flat: one vector per
// (stream, level), sorted by index, of 24-byte entries. A lookup is two
// binary searches, one over the few (stream, level) runs and one within
// the run. A seal appends at its level's end, which is a push_back. The
// rare key that lands out of order (a node rebuilt after the scrubber
// dropped it, a leaf re-sealed behind a gap) is an ordered insert, and a
// superseding copy overwrites its entry in place. A vector holds only
// the keys that exist, so nothing is sized by an index read from disk.
//
// The same sorted-vector discipline (SortedEmplace, SortedFind) keeps
// the store's quarantine and Open()'s scanned leaves flat too.

#ifndef MERGEABLE_STORE_MANIFEST_H_
#define MERGEABLE_STORE_MANIFEST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace mergeable {

// `sorted` ascends strictly by proj(element). Returns the element whose
// key is `key` and false; or, when there is none, make() inserted in
// its place (appended when `key` sorts after the last) and true.
template <typename T, typename K, typename Proj, typename Make>
std::pair<typename std::vector<T>::iterator, bool> SortedEmplace(
    std::vector<T>& sorted, const K& key, Proj proj, Make make) {
  if (sorted.empty() || std::invoke(proj, sorted.back()) < key) {
    sorted.push_back(make());
    return {sorted.end() - 1, true};
  }
  const auto it = std::ranges::lower_bound(sorted, key, {}, proj);
  if (std::invoke(proj, *it) == key) return {it, false};
  return {sorted.insert(it, make()), true};
}

// The element of `sorted` (ascending by proj) whose key is `key`, or
// end().
template <typename Range, typename K, typename Proj>
auto SortedFind(Range& sorted, const K& key, Proj proj) {
  const auto it = std::ranges::lower_bound(sorted, key, {}, proj);
  return it != std::ranges::end(sorted) && std::invoke(proj, *it) == key
             ? it
             : std::ranges::end(sorted);
}

class Manifest {
 public:
  using Key = std::tuple<uint64_t, uint32_t, uint64_t>;  // stream, level, index

  // One record's frame: 24 bytes, the segment number and the frame
  // length narrowed to 32 bits. A location that does not fit (Fits) is
  // refused by the caller, never truncated.
  struct Entry {
    uint64_t index = 0;
    uint64_t offset = 0;   // Of the frame within its segment file.
    uint32_t segment = 0;  // The segment file's number.
    uint32_t length = 0;   // The whole frame, magic through checksum.

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  static_assert(sizeof(Entry) == 24);

  struct Record {
    uint64_t stream = 0;
    uint32_t level = 0;
    Entry entry;
    Key key() const { return {stream, level, entry.index}; }
  };

  static bool Fits(uint64_t segment, uint64_t length) {
    return segment <= std::numeric_limits<uint32_t>::max() &&
           length <= std::numeric_limits<uint32_t>::max();
  }

  void Clear();
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Points the key (stream, level, entry.index) at entry's frame,
  // replacing any earlier copy.
  void Put(uint64_t stream, uint32_t level, const Entry& entry);
  std::optional<Entry> Find(uint64_t stream, uint32_t level,
                            uint64_t index) const;
  void Erase(uint64_t stream, uint32_t level, uint64_t index);

  // min(count, size()) records in (stream, level, index) order, from the
  // first key after `after` (the first key overall when there is none),
  // wrapping to the first key past the last: the scrubber's walk.
  std::vector<Record> Walk(const std::optional<Key>& after,
                           size_t count) const;

 private:
  struct Run {
    uint64_t stream = 0;
    uint32_t level = 0;
    std::vector<Entry> entries;  // Ascending by index; never empty.
  };
  static std::pair<uint64_t, uint32_t> RunKey(const Run& run) {
    return {run.stream, run.level};
  }

  std::vector<Run> runs_;  // Ascending by (stream, level).
  size_t size_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_STORE_MANIFEST_H_
