#include "mergeable/util/flat_map.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/util/hash.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

uint64_t CountOf(const FlatMap<uint64_t>& map, uint64_t key) {
  const uint64_t* count = map.Find(key);
  return count != nullptr ? *count : 0;
}

std::optional<uint32_t> SlotOf(const FlatMap<uint32_t>& map, uint64_t key) {
  const uint32_t* slot = map.Find(key);
  if (slot == nullptr) return std::nullopt;
  return *slot;
}

// --- Counter use: item -> count (Misra-Gries, CombineCounters). ---

TEST(FlatCounterMapTest, StartsEmpty) {
  FlatMap<uint64_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(CountOf(map, 42), 0u);
  EXPECT_EQ(map.Find(42), nullptr);
}

TEST(FlatCounterMapTest, AddWeightInsertsAndAccumulates) {
  FlatMap<uint64_t> map;
  EXPECT_EQ(map[7] += 3, 3u);
  EXPECT_EQ(map[7] += 4, 7u);
  EXPECT_EQ(CountOf(map, 7), 7u);
  EXPECT_NE(map.Find(7), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatCounterMapTest, DistinctKeysAreIndependent) {
  FlatMap<uint64_t> map;
  map[1] += 10;
  map[2] += 20;
  map[3] += 30;
  EXPECT_EQ(CountOf(map, 1), 10u);
  EXPECT_EQ(CountOf(map, 2), 20u);
  EXPECT_EQ(CountOf(map, 3), 30u);
  EXPECT_EQ(map.size(), 3u);
}

TEST(FlatCounterMapTest, HandlesExtremeKeys) {
  FlatMap<uint64_t> map;
  map[0] += 1;
  map[~uint64_t{0}] += 2;
  EXPECT_EQ(CountOf(map, 0), 1u);
  EXPECT_EQ(CountOf(map, ~uint64_t{0}), 2u);
}

TEST(FlatCounterMapTest, GrowsBeyondInitialCapacity) {
  FlatMap<uint64_t> map(4);
  for (uint64_t key = 0; key < 1000; ++key) map[key] += key + 1;
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(CountOf(map, key), key + 1) << "key " << key;
  }
}

TEST(FlatCounterMapTest, ClearKeepsCapacityDropsEntries) {
  FlatMap<uint64_t> map;
  for (uint64_t key = 0; key < 100; ++key) map[key] += 1;
  const uint64_t rebuilds = map.rebuilds();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t key = 0; key < 100; ++key) EXPECT_EQ(CountOf(map, key), 0u);
  // Refilling to the old size fits the kept capacity.
  for (uint64_t key = 100; key < 200; ++key) map[key] += 1;
  EXPECT_EQ(map.rebuilds(), rebuilds);
  map[5] += 9;
  EXPECT_EQ(CountOf(map, 5), 9u);
}

TEST(FlatCounterMapTest, EntriesReturnsAllPairs) {
  FlatMap<uint64_t> map;
  map[10] += 1;
  map[20] += 2;
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  map.ForEach([&entries](uint64_t key, uint64_t count) {
    entries.emplace_back(key, count);
  });
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], std::make_pair(uint64_t{10}, uint64_t{1}));
  EXPECT_EQ(entries[1], std::make_pair(uint64_t{20}, uint64_t{2}));
}

TEST(FlatCounterMapTest, ForEachVisitsEveryEntryOnce) {
  FlatMap<uint64_t> map;
  for (uint64_t key = 0; key < 50; ++key) map[key * 7919] += key + 1;
  uint64_t visits = 0;
  uint64_t total = 0;
  map.ForEach([&](uint64_t /*key*/, uint64_t count) {
    ++visits;
    total += count;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(total, 50u * 51u / 2u);
}

TEST(FlatCounterMapTest, MatchesReferenceMapUnderRandomWorkload) {
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.UniformInt(uint64_t{512});
    const uint64_t weight = 1 + rng.UniformInt(uint64_t{5});
    map[key] += weight;
    reference[key] += weight;
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, count] : reference) {
    ASSERT_EQ(CountOf(map, key), count) << "key " << key;
  }
}

TEST(FlatCounterMapTest, CopySemantics) {
  FlatMap<uint64_t> map;
  map[1] += 5;
  FlatMap<uint64_t> copy = map;
  copy[1] += 5;
  EXPECT_EQ(CountOf(map, 1), 5u);
  EXPECT_EQ(CountOf(copy, 1), 10u);
}

// --- Slot-index use with erase: item -> slot (SpaceSaving). ---

TEST(FlatSlotIndexTest, StartsEmpty) {
  FlatMap<uint32_t> index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.rebuilds(), 0u);
  EXPECT_EQ(index.Find(42), nullptr);
}

TEST(FlatSlotIndexTest, InsertThenFind) {
  FlatMap<uint32_t> index;
  index.Insert(10, 0);
  index.Insert(20, 1);
  index.Insert(30, 2);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(SlotOf(index, 10), std::optional<uint32_t>{0});
  EXPECT_EQ(SlotOf(index, 20), std::optional<uint32_t>{1});
  EXPECT_EQ(SlotOf(index, 30), std::optional<uint32_t>{2});
  EXPECT_EQ(index.Find(40), nullptr);
}

TEST(FlatSlotIndexTest, HandlesExtremeKeys) {
  FlatMap<uint32_t> index;
  index.Insert(0, 1);
  index.Insert(~uint64_t{0}, 2);
  EXPECT_EQ(SlotOf(index, 0), std::optional<uint32_t>{1});
  EXPECT_EQ(SlotOf(index, ~uint64_t{0}), std::optional<uint32_t>{2});
}

TEST(FlatSlotIndexTest, EraseRemovesOnlyTheKey) {
  FlatMap<uint32_t> index;
  for (uint64_t key = 0; key < 16; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  EXPECT_TRUE(index.Erase(7));
  EXPECT_EQ(index.size(), 15u);
  EXPECT_EQ(index.Find(7), nullptr);
  for (uint64_t key = 0; key < 16; ++key) {
    if (key == 7) continue;
    ASSERT_EQ(SlotOf(index, key), std::optional<uint32_t>{key}) << key;
  }
  // Erasing an absent key is a no-op.
  EXPECT_FALSE(index.Erase(7));
  EXPECT_FALSE(index.Erase(999));
  EXPECT_EQ(index.size(), 15u);
}

TEST(FlatSlotIndexTest, ReinsertAfterEraseReclaimsTombstone) {
  // Erase leaves no tombstone: the freed cell is reused, so any number
  // of erase/re-insert rounds of one key never rebuilds the table.
  FlatMap<uint32_t> index;
  index.Insert(1, 5);
  for (uint32_t round = 0; round < 1000; ++round) {
    ASSERT_TRUE(index.Erase(1));
    index.Insert(1, round);
  }
  EXPECT_EQ(SlotOf(index, 1), std::optional<uint32_t>{999});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.rebuilds(), 0u);
}

TEST(FlatSlotIndexTest, ProbeChainSurvivesMiddleErase) {
  // Force collision chains, erase every other entry and check the rest
  // stay reachable (backward shift must not break linear probing).
  FlatMap<uint32_t> index;
  for (uint64_t key = 0; key < 200; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  for (uint64_t key = 0; key < 200; key += 2) index.Erase(key);
  for (uint64_t key = 1; key < 200; key += 2) {
    ASSERT_EQ(SlotOf(index, key), std::optional<uint32_t>{key}) << key;
  }
  for (uint64_t key = 0; key < 200; key += 2) {
    ASSERT_EQ(index.Find(key), nullptr) << key;
  }
}

TEST(FlatSlotIndexTest, GrowsBeyondInitialCapacityAndCountsRebuilds) {
  FlatMap<uint32_t> index(/*expected_entries=*/4);
  for (uint64_t key = 0; key < 10000; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  EXPECT_EQ(index.size(), 10000u);
  EXPECT_GT(index.rebuilds(), 0u);
  for (uint64_t key = 0; key < 10000; ++key) {
    ASSERT_EQ(SlotOf(index, key), std::optional<uint32_t>{key}) << key;
  }
}

TEST(FlatSlotIndexTest, ReserveAvoidsRebuilds) {
  FlatMap<uint32_t> index;
  index.Reserve(10000);
  const uint64_t after_reserve = index.rebuilds();
  for (uint64_t key = 0; key < 10000; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  EXPECT_EQ(index.rebuilds(), after_reserve);
}

TEST(FlatSlotIndexTest, TombstonePurgeKeepsAmortizedProbesShort) {
  // Churn: repeated erase+insert at bounded live size never grows or
  // rebuilds the table (there are no tombstones to purge), and the index
  // stays correct throughout.
  FlatMap<uint32_t> index(/*expected_entries=*/64);
  for (uint64_t key = 0; key < 64; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  for (uint64_t round = 0; round < 10000; ++round) {
    ASSERT_TRUE(index.Erase(round));
    index.Insert(64 + round, static_cast<uint32_t>(round % 64));
  }
  EXPECT_EQ(index.rebuilds(), 0u);
  EXPECT_EQ(index.size(), 64u);
  for (uint64_t key = 10000; key < 10064; ++key) {
    ASSERT_EQ(SlotOf(index, key), std::optional<uint32_t>{(key - 64) % 64})
        << key;
  }
}

TEST(FlatSlotIndexTest, ClearDropsEntriesWithoutCountingARebuild) {
  FlatMap<uint32_t> index;
  for (uint64_t key = 0; key < 50; ++key) {
    index.Insert(key, static_cast<uint32_t>(key));
  }
  const uint64_t rebuilds = index.rebuilds();
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.rebuilds(), rebuilds);
  EXPECT_EQ(index.Find(3), nullptr);
  index.Insert(3, 30);
  EXPECT_EQ(SlotOf(index, 3), std::optional<uint32_t>{30});
}

// --- Slot-index use with O(1) clear (deamortized SpaceSaving). ---

TEST(GenSlotIndexTest, InsertAndFind) {
  FlatMap<uint32_t> index(16);
  EXPECT_TRUE(index.empty());
  index.Insert(42, 0);
  index.Insert(7, 1);
  ASSERT_NE(index.Find(42), nullptr);
  EXPECT_EQ(*index.Find(42), 0u);
  EXPECT_EQ(*index.Find(7), 1u);
  EXPECT_EQ(index.Find(9), nullptr);
  EXPECT_EQ(index.size(), 2u);
}

TEST(GenSlotIndexTest, ClearIsLogicalNotPhysical) {
  FlatMap<uint32_t> index(8);
  for (uint32_t i = 0; i < 8; ++i) index.Insert(i, i);
  index.Clear();
  EXPECT_TRUE(index.empty());
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(index.Find(i), nullptr) << i;
  }
  // Old keys can re-enter with new slots after the clear.
  index.Insert(3, 99);
  EXPECT_EQ(*index.Find(3), 99u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(GenSlotIndexTest, ManyGenerationsStayConsistent) {
  FlatMap<uint32_t> index(64);
  Rng rng(2024);
  for (int gen = 0; gen < 1000; ++gen) {
    std::unordered_map<uint64_t, uint32_t> reference;
    for (uint32_t slot = 0; slot < 64; ++slot) {
      const uint64_t key = rng.Next();
      if (reference.count(key)) continue;
      reference[key] = slot;
      index.Insert(key, slot);
    }
    for (const auto& [key, slot] : reference) {
      ASSERT_NE(index.Find(key), nullptr);
      EXPECT_EQ(*index.Find(key), slot);
    }
    // A key from a prior generation must not resurrect.
    EXPECT_EQ(index.Find(rng.Next()), nullptr);
    index.Clear();
  }
}

TEST(GenSlotIndexTest, GrowsBeyondReservation) {
  FlatMap<uint32_t> index(4);
  for (uint32_t i = 0; i < 4096; ++i) index.Insert(i * 2654435761u, i);
  EXPECT_EQ(index.size(), 4096u);
  for (uint32_t i = 0; i < 4096; ++i) {
    ASSERT_NE(index.Find(i * 2654435761u), nullptr);
    EXPECT_EQ(*index.Find(i * 2654435761u), i);
  }
  EXPECT_GT(index.rebuilds(), 0u);
}

TEST(GenSlotIndexTest, ReservePreventsRebuilds) {
  FlatMap<uint32_t> index(1024);
  for (uint32_t i = 0; i < 1024; ++i) index.Insert(i * 0x9e3779b9u, i);
  EXPECT_EQ(index.rebuilds(), 0u);
}

// --- The merged table against a reference model. ---

// The smallest table has 16 cells and holds up to 11 entries without
// growing. Returns `count` keys spread over the 64-bit range whose home
// cell in that table is `home`.
std::vector<uint64_t> KeysWithHome(size_t home, size_t count) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; keys.size() < count; ++i) {
    const uint64_t key =
        i % 2 == 0 ? ~uint64_t{0} - i : (uint64_t{1} << 63) + i;
    if ((MixHash(key) & 15) == home) keys.push_back(key);
  }
  return keys;
}

TEST(FlatMapTest, EraseShiftsAWrappedChainBack) {
  // Three keys homed at the last cell occupy cells 15, 0 and 1; a key
  // homed at cell 0 lands behind them. Erasing the head must pull the
  // wrapped members back past the end of the array.
  const std::vector<uint64_t> last = KeysWithHome(15, 3);
  const std::vector<uint64_t> first = KeysWithHome(0, 1);
  FlatMap<uint32_t> index;
  for (uint32_t i = 0; i < 3; ++i) index.Insert(last[i], i);
  index.Insert(first[0], 3);
  ASSERT_TRUE(index.Erase(last[0]));
  EXPECT_EQ(index.Find(last[0]), nullptr);
  EXPECT_EQ(SlotOf(index, last[1]), std::optional<uint32_t>{1});
  EXPECT_EQ(SlotOf(index, last[2]), std::optional<uint32_t>{2});
  EXPECT_EQ(SlotOf(index, first[0]), std::optional<uint32_t>{3});
  ASSERT_TRUE(index.Erase(last[2]));
  EXPECT_EQ(SlotOf(index, last[1]), std::optional<uint32_t>{1});
  EXPECT_EQ(SlotOf(index, first[0]), std::optional<uint32_t>{3});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.rebuilds(), 0u);
}

TEST(FlatMapTest, MatchesReferenceModelOnCollidingWrappedKeys) {
  // Keys sharing probe chains that wrap past the last cell, at a live
  // size the 16-cell table holds without growing, so every erase runs
  // backward shift across the wrap.
  std::vector<uint64_t> pool;
  for (const size_t home : {size_t{13}, size_t{15}, size_t{0}}) {
    const std::vector<uint64_t> keys = KeysWithHome(home, 5);
    pool.insert(pool.end(), keys.begin(), keys.end());
  }
  constexpr size_t kMaxLive = 11;
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = pool[rng.UniformInt(pool.size())];
    const uint64_t op = rng.UniformInt(uint64_t{100});
    const bool present = reference.count(key) != 0;
    if (op < 35) {
      if (!present && reference.size() < kMaxLive) {
        map.Insert(key, step);
        reference[key] = step;
      }
    } else if (op < 60) {
      if (present || reference.size() < kMaxLive) {
        map[key] += 3;
        reference[key] += 3;
      }
    } else if (op < 98) {
      ASSERT_EQ(map.Erase(key), reference.erase(key) == 1);
    } else if (op < 99) {
      map.Reserve(reference.size());
    } else {
      map.Clear();
      reference.clear();
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
    for (const uint64_t probe : pool) {
      const auto it = reference.find(probe);
      const uint64_t* found = map.Find(probe);
      if (it == reference.end()) {
        ASSERT_EQ(found, nullptr) << "step " << step;
      } else {
        ASSERT_NE(found, nullptr) << "step " << step;
        ASSERT_EQ(*found, it->second) << "step " << step;
      }
    }
  }
  // Churn at bounded size never grew the table.
  EXPECT_EQ(map.rebuilds(), 0u);
}

TEST(FlatMapTest, MatchesReferenceModelUnderGrowth) {
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(11);
  for (int step = 0; step < 50000; ++step) {
    // Ten high bits of spread over a 2^63 offset: keys use the whole
    // 64-bit range but still repeat.
    const uint64_t key = (uint64_t{1} << 63) |
                         (rng.UniformInt(uint64_t{4096}) << 50) | (step % 7);
    const uint64_t op = rng.UniformInt(uint64_t{100});
    if (op < 30) {
      if (reference.count(key) == 0) {
        map.Insert(key, key);
        reference[key] = key;
      }
    } else if (op < 70) {
      map[key] += 1;
      reference[key] += 1;
    } else if (op < 99) {
      ASSERT_EQ(map.Erase(key), reference.erase(key) == 1);
    } else if (rng.UniformInt(uint64_t{20}) == 0) {
      map.Clear();
      reference.clear();
    } else {
      map.Reserve(reference.size() * 2);
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
  }
  uint64_t visited = 0;
  map.ForEach([&](uint64_t key, uint64_t value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, reference.size());
  EXPECT_GT(map.rebuilds(), 0u);
}

TEST(FlatMapTest, GrowsOnlyOnARealInsert) {
  // Eleven entries fill the 16-cell table to its load limit; bumping
  // present keys must not grow it, and the twelfth key must.
  FlatMap<uint64_t> map;
  for (uint64_t key = 0; key < 11; ++key) map[key] += 1;
  for (uint64_t key = 0; key < 11; ++key) map[key] += 1;
  EXPECT_EQ(map.rebuilds(), 0u);
  map[11] += 1;
  EXPECT_EQ(map.rebuilds(), 1u);
  EXPECT_EQ(CountOf(map, 3), 2u);
}

}  // namespace
}  // namespace mergeable
