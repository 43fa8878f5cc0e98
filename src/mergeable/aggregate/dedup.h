// Bounded (shard, epoch) dedup memory for ingest coordinators.
//
// Retries are the aggregation pipeline's answer to every transient
// fault, and dedup is what makes retries idempotent — but naive dedup
// remembers every key it ever admitted, so a duplicate storm (a
// misbehaving worker resending one report forever, a retry loop gone
// hot, stragglers from long-dead epochs) grows coordinator memory
// without bound. DedupWindow caps that memory at a fixed number of
// keys with FIFO eviction: the oldest admission is forgotten first,
// which is safe for ingest because reports for old epochs are rejected
// by the epoch check before dedup is ever consulted — the window only
// needs to span the epochs currently in flight.
//
// Duplicates of a key already in the window are pure lookups: a storm
// of them performs zero insertions and cannot grow the window at all
// (the regression test sends one report thousands of times and asserts
// exactly that).
//
// Layout: admission is on the per-report ingest path, so the window is
// flat — no node per key. The keys live in a ring in admission order
// (the slot after the newest is the oldest once the ring is full), and
// a linear-probing hash set of 32-bit ring slots answers membership.
// Evicting a key deletes its cell by backward shift, so probe chains
// never carry tombstones. Both arrays grow with occupancy, never past
// what `capacity` keys need: a service configured for a wide window
// pays for the keys it actually holds, and construction allocates
// nothing.

#ifndef MERGEABLE_AGGREGATE_DEDUP_H_
#define MERGEABLE_AGGREGATE_DEDUP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mergeable/util/check.h"
#include "mergeable/util/hash.h"

namespace mergeable {

class DedupWindow {
 public:
  explicit DedupWindow(size_t capacity) : capacity_(capacity) {
    MERGEABLE_CHECK_MSG(capacity >= 1, "DedupWindow capacity must be >= 1");
    MERGEABLE_CHECK_MSG(capacity < kEmpty,
                        "DedupWindow capacity must fit a 32-bit slot");
  }

  // True when (shard, epoch) was not in the window — the key is
  // recorded (evicting the oldest key when the window is full). False
  // for a duplicate: nothing is inserted, nothing grows.
  bool Admit(uint64_t shard, uint64_t epoch) {
    const Key key{shard, epoch};
    const size_t hash = Hash(key);
    if (FindCell(key, hash) != kNotFound) return false;
    uint32_t slot = 0;
    if (keys_.size() < capacity_) {
      if ((keys_.size() + 1) * 10 > cells_.size() * 7) {
        Rehash(std::max<size_t>(16, cells_.size() * 2));
      }
      if (keys_.size() == keys_.capacity()) {
        // Doubling, but never past capacity_ (plain push_back could
        // overshoot it by up to 2x).
        keys_.reserve(
            std::min(capacity_, std::max<size_t>(16, keys_.size() * 2)));
      }
      slot = static_cast<uint32_t>(keys_.size());
      keys_.push_back(key);
    } else {
      slot = oldest_;
      EraseCell(FindCell(keys_[slot], Hash(keys_[slot])));
      keys_[slot] = key;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
      ++evictions_;
    }
    size_t cell = hash & (cells_.size() - 1);
    while (cells_[cell] != kEmpty) cell = (cell + 1) & (cells_.size() - 1);
    cells_[cell] = slot;
    return true;
  }

  bool Contains(uint64_t shard, uint64_t epoch) const {
    const Key key{shard, epoch};
    return FindCell(key, Hash(key)) != kNotFound;
  }

  size_t size() const { return keys_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Key {
    uint64_t shard = 0;
    uint64_t epoch = 0;
    bool operator==(const Key&) const = default;
  };

  static constexpr uint32_t kEmpty = ~uint32_t{0};
  static constexpr size_t kNotFound = ~size_t{0};

  static size_t Hash(const Key& key) {
    return static_cast<size_t>(MixHash(MixHash(key.shard) + key.epoch));
  }

  // The cell holding `key`'s ring slot, or kNotFound.
  size_t FindCell(const Key& key, size_t hash) const {
    if (cells_.empty()) return kNotFound;
    const size_t mask = cells_.size() - 1;
    for (size_t cell = hash & mask;; cell = (cell + 1) & mask) {
      const uint32_t slot = cells_[cell];
      if (slot == kEmpty) return kNotFound;
      if (keys_[slot] == key) return cell;
    }
  }

  // Empties `hole`, pulling later members of its probe chain back so
  // every remaining key stays reachable from its home cell.
  void EraseCell(size_t hole) {
    const size_t mask = cells_.size() - 1;
    for (size_t cell = (hole + 1) & mask; cells_[cell] != kEmpty;
         cell = (cell + 1) & mask) {
      const size_t home = Hash(keys_[cells_[cell]]) & mask;
      // Movable unless its home lies cyclically in (hole, cell].
      if (((cell - home) & mask) >= ((cell - hole) & mask)) {
        cells_[hole] = cells_[cell];
        hole = cell;
      }
    }
    cells_[hole] = kEmpty;
  }

  // Before the ring first wraps every key in it is live, so a rebuild
  // re-inserts slots [0, size).
  void Rehash(size_t new_cells) {
    cells_.assign(new_cells, kEmpty);
    const size_t mask = new_cells - 1;
    for (uint32_t slot = 0; slot < keys_.size(); ++slot) {
      size_t cell = Hash(keys_[slot]) & mask;
      while (cells_[cell] != kEmpty) cell = (cell + 1) & mask;
      cells_[cell] = slot;
    }
  }

  size_t capacity_;
  std::vector<Key> keys_;        // Ring of admitted keys; grows to capacity_.
  uint32_t oldest_ = 0;          // Next slot to evict once the ring is full.
  std::vector<uint32_t> cells_;  // Linear-probing set of ring slots.
  uint64_t evictions_ = 0;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_DEDUP_H_
