// A flat open-addressing map from uint64_t keys to small values.
//
// The one hash table behind the counter summaries' hot paths: the
// Misra-Gries counters (item -> count), the SpaceSaving and deamortized
// SpaceSaving indexes (item -> slot in a counter array) and the server's
// pending-report index (shard -> position). Every stream update is one
// probe sequence here, so the table is flat and pointer-free: linear
// probing over a power-of-two array of {key, value, gen} cells, hashed
// with MixHash, at least 16 cells, doubled whenever an insert would push
// the load past 0.7. Keys are arbitrary 64-bit values (no sentinel key).
//
// Two mechanisms keep every operation O(1) without bulk maintenance:
//
//   * Clear() is a generation bump. A cell is live only while its stamp
//     equals the table's generation, so bumping the generation empties
//     the table without touching a cell. (The 2^32nd bump rewrites the
//     stamps once, so stale cells never read as live again.) The
//     deamortized summary relies on this for its strict O(1) worst-case
//     update; the other users simply skip an O(cells) scan per reset.
//   * Erase() is backward-shift deletion: later members of the probe
//     chain move back into the hole, so no tombstones are left behind
//     and erase/insert churn never triggers a rebuild.
//
// Iteration order (ForEach) is unspecified and depends on the insertion
// history; every caller that produces bytes sorts first.

#ifndef MERGEABLE_UTIL_FLAT_MAP_H_
#define MERGEABLE_UTIL_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"

namespace mergeable {

template <typename V>
class FlatMap {
 public:
  // Creates an empty map able to hold `expected_entries` entries without
  // rebuilding.
  explicit FlatMap(size_t expected_entries = 8)
      : cells_(CellsFor(expected_entries)) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Bulk table rebuilds performed so far (growth or Reserve; Clear and
  // Erase never rebuild). The initial allocation does not count.
  uint64_t rebuilds() const { return rebuilds_; }

  // The value stored for `key`, or nullptr if absent. The pointer is
  // invalidated by the next insert or erase.
  const V* Find(uint64_t key) const {
    const Cell& cell = cells_[Probe(key)];
    return cell.gen == gen_ ? &cell.value : nullptr;
  }
  V* Find(uint64_t key) {
    Cell& cell = cells_[Probe(key)];
    return cell.gen == gen_ ? &cell.value : nullptr;
  }

  // Inserts `key -> value`. The key must be absent (checked in debug
  // builds: inserting a present key would shadow it).
  void Insert(uint64_t key, V value) {
    MERGEABLE_DCHECK(Find(key) == nullptr);
    GrowForInsert();
    cells_[Probe(key)] = Cell{key, value, gen_};
    ++size_;
  }

  // The value stored for `key`, inserting V{} first if absent. Only a
  // real insert can grow the table.
  V& operator[](uint64_t key) {
    size_t index = Probe(key);
    if (cells_[index].gen != gen_) {
      if (GrowForInsert()) index = Probe(key);
      cells_[index] = Cell{key, V{}, gen_};
      ++size_;
    }
    return cells_[index].value;
  }

  // Removes `key`; returns whether it was present.
  bool Erase(uint64_t key) {
    size_t hole = Probe(key);
    if (cells_[hole].gen != gen_) return false;
    const size_t mask = cells_.size() - 1;
    for (size_t index = (hole + 1) & mask; cells_[index].gen == gen_;
         index = (index + 1) & mask) {
      const size_t home = MixHash(cells_[index].key) & mask;
      // Movable unless its home lies cyclically in (hole, index].
      if (((index - home) & mask) >= ((index - hole) & mask)) {
        cells_[hole] = cells_[index];
        hole = index;
      }
    }
    cells_[hole].gen = 0;
    --size_;
    return true;
  }

  // Drops every entry in O(1), keeping the capacity.
  void Clear() {
    size_ = 0;
    if (++gen_ == 0) {
      for (Cell& cell : cells_) cell.gen = 0;
      gen_ = 1;
    }
  }

  // Ensures `expected_entries` entries fit without a rebuild.
  void Reserve(size_t expected_entries) {
    const size_t wanted = CellsFor(expected_entries);
    if (wanted > cells_.size()) Rebuild(wanted);
  }

  // Invokes `fn(key, value)` for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Cell& cell : cells_) {
      if (cell.gen == gen_) fn(cell.key, cell.value);
    }
  }

 private:
  struct Cell {
    uint64_t key = 0;
    V value{};
    uint32_t gen = 0;  // Live iff equal to the table's gen_ (never 0).
  };

  static size_t CellsFor(size_t entries) {
    size_t cells = 16;
    // Keep load factor below 0.7.
    while (cells * 7 < entries * 10) cells *= 2;
    return cells;
  }

  // The cell holding `key`, or the empty cell that ends its probe chain.
  size_t Probe(uint64_t key) const {
    const size_t mask = cells_.size() - 1;
    size_t index = MixHash(key) & mask;
    while (cells_[index].gen == gen_ && cells_[index].key != key) {
      index = (index + 1) & mask;
    }
    return index;
  }

  // Doubles the table if one more entry would cross the load limit;
  // returns whether it did.
  bool GrowForInsert() {
    if ((size_ + 1) * 10 <= cells_.size() * 7) return false;
    Rebuild(cells_.size() * 2);
    return true;
  }

  void Rebuild(size_t new_cells) {
    MERGEABLE_DCHECK((new_cells & (new_cells - 1)) == 0);
    std::vector<Cell> old =
        std::exchange(cells_, std::vector<Cell>(new_cells));
    for (const Cell& cell : old) {
      if (cell.gen == gen_) cells_[Probe(cell.key)] = cell;
    }
    ++rebuilds_;
  }

  std::vector<Cell> cells_;
  size_t size_ = 0;
  uint32_t gen_ = 1;
  uint64_t rebuilds_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_UTIL_FLAT_MAP_H_
