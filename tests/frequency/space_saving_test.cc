#include "mergeable/frequency/space_saving.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

std::map<uint64_t, uint64_t> TrueCounts(const std::vector<uint64_t>& stream) {
  std::map<uint64_t, uint64_t> counts;
  for (uint64_t item : stream) ++counts[item];
  return counts;
}

TEST(SpaceSavingTest, SmallStreamIsExact) {
  SpaceSaving ss(4);
  for (uint64_t item : {1u, 1u, 2u, 3u, 1u}) ss.Update(item);
  EXPECT_EQ(ss.n(), 5u);
  EXPECT_EQ(ss.Count(1), 3u);
  EXPECT_EQ(ss.Count(2), 1u);
  EXPECT_EQ(ss.MinCount(), 0u);  // Not full yet.
  EXPECT_EQ(ss.LowerEstimate(1), 3u);
  EXPECT_EQ(ss.UpperEstimate(1), 3u);
}

TEST(SpaceSavingTest, EvictionInheritsMinCount) {
  SpaceSaving ss(2);
  ss.Update(1);  // {1:1}
  ss.Update(2);  // {1:1, 2:1}
  ss.Update(3);  // evicts min -> {3:2, ...} with over = 1
  EXPECT_EQ(ss.Count(3), 2u);
  EXPECT_EQ(ss.LowerEstimate(3), 1u);
  EXPECT_EQ(ss.n(), 3u);
}

TEST(SpaceSavingTest, SumOfCountersEqualsNWhileStreaming) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 30000;
  spec.universe = 1024;
  const auto stream = GenerateStream(spec, 31);

  SpaceSaving ss(32);
  for (uint64_t item : stream) ss.Update(item);

  uint64_t sum = 0;
  for (const Counter& counter : ss.Counters()) sum += counter.count;
  EXPECT_EQ(sum, ss.n());
}

TEST(SpaceSavingTest, StreamingBoundsHoldForEveryItem) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 50000;
  spec.universe = 4096;
  const auto stream = GenerateStream(spec, 32);
  const auto truth = TrueCounts(stream);

  SpaceSaving ss(64);
  for (uint64_t item : stream) ss.Update(item);

  EXPECT_LE(ss.MinCount(), ss.n() / 64);
  EXPECT_EQ(ss.UnderSlack(), 0u);
  for (const auto& [item, count] : truth) {
    ASSERT_LE(ss.LowerEstimate(item), count) << "item " << item;
    ASSERT_LE(count, ss.UpperEstimate(item)) << "item " << item;
  }
}

TEST(SpaceSavingTest, IsomorphismWithMisraGries) {
  // Agarwal et al.: SS with k+1 counters vs MG with k counters on the
  // same stream satisfy ss_estimate(x) == mg_count(x) + min_ss for every
  // x, and min_ss == (n - sum mg) / (k + 1).
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 20000;
  spec.universe = 512;
  const auto stream = GenerateStream(spec, 33);
  const auto truth = TrueCounts(stream);

  constexpr int k = 16;
  SpaceSaving ss(k + 1);
  MisraGries mg(k);
  for (uint64_t item : stream) {
    ss.Update(item);
    mg.Update(item);
  }

  uint64_t mg_sum = 0;
  for (const Counter& counter : mg.Counters()) mg_sum += counter.count;
  ASSERT_EQ(ss.MinCount(), (ss.n() - mg_sum) / (k + 1));

  for (const auto& [item, count] : truth) {
    const uint64_t ss_estimate =
        ss.Count(item) > 0 ? ss.Count(item) : ss.MinCount();
    ASSERT_EQ(ss_estimate, mg.LowerEstimate(item) + ss.MinCount())
        << "item " << item;
  }
}

TEST(SpaceSavingTest, ToMisraGriesKeepsGuarantee) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 20000;
  spec.universe = 512;
  const auto stream = GenerateStream(spec, 34);
  const auto truth = TrueCounts(stream);

  SpaceSaving ss(33);
  for (uint64_t item : stream) ss.Update(item);
  const MisraGries mg = ss.ToMisraGries();

  EXPECT_EQ(mg.n(), ss.n());
  EXPECT_LE(mg.size(), 32u);
  const uint64_t error = mg.ErrorBound();
  for (const auto& [item, count] : truth) {
    ASSERT_LE(mg.LowerEstimate(item), count);
    ASSERT_LE(count, mg.LowerEstimate(item) + error);
  }
}

class SpaceSavingMergeTest : public ::testing::TestWithParam<bool> {
 protected:
  // Merges b into a with the algorithm under test.
  static void DoMerge(SpaceSaving& a, const SpaceSaving& b, bool cafaro) {
    if (cafaro) {
      a.MergeCafaro(b);
    } else {
      a.Merge(b);
    }
  }
};

TEST_P(SpaceSavingMergeTest, TwoSidedBoundsHoldAfterMergeTree) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 60000;
  spec.universe = 2048;
  const auto stream = GenerateStream(spec, 35);
  const auto truth = TrueCounts(stream);
  const auto shards = PartitionStream(stream, 8, PartitionPolicy::kRandom, 7);

  std::vector<SpaceSaving> parts;
  for (const auto& shard : shards) {
    SpaceSaving ss(64);
    for (uint64_t item : shard) ss.Update(item);
    parts.push_back(ss);
  }
  SpaceSaving merged = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    DoMerge(merged, parts[i], GetParam());
  }

  EXPECT_EQ(merged.n(), stream.size());
  EXPECT_LE(merged.size(), 64u);
  for (const auto& [item, count] : truth) {
    ASSERT_LE(merged.LowerEstimate(item), count) << "item " << item;
    ASSERT_LE(count, merged.UpperEstimate(item)) << "item " << item;
  }
}

TEST_P(SpaceSavingMergeTest, MergedErrorWithinEpsilonN) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 60000;
  spec.universe = 2048;
  const auto stream = GenerateStream(spec, 36);
  const auto truth = TrueCounts(stream);
  const auto shards =
      PartitionStream(stream, 16, PartitionPolicy::kContiguous);

  constexpr int kCapacity = 50;  // epsilon = 1/50.
  std::vector<SpaceSaving> parts;
  for (const auto& shard : shards) {
    SpaceSaving ss(kCapacity);
    for (uint64_t item : shard) ss.Update(item);
    parts.push_back(ss);
  }
  SpaceSaving merged = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    DoMerge(merged, parts[i], GetParam());
  }

  const auto epsilon_n = static_cast<uint64_t>(stream.size()) / kCapacity;
  for (const auto& [item, count] : truth) {
    const uint64_t estimate = merged.Count(item);
    const uint64_t error =
        estimate > count ? estimate - count : count - estimate;
    ASSERT_LE(error, epsilon_n) << "item " << item;
  }
}

TEST_P(SpaceSavingMergeTest, HeavyHittersSurviveMerging) {
  StreamSpec spec;
  spec.kind = StreamKind::kAdversarialMg;
  spec.n = 50000;
  spec.heavy_items = 8;
  const auto stream = GenerateStream(spec, 37);
  const auto truth = TrueCounts(stream);
  const auto shards = PartitionStream(stream, 10, PartitionPolicy::kRandom, 3);

  std::vector<SpaceSaving> parts;
  for (const auto& shard : shards) {
    SpaceSaving ss(32);
    for (uint64_t item : shard) ss.Update(item);
    parts.push_back(ss);
  }
  SpaceSaving merged = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    DoMerge(merged, parts[i], GetParam());
  }

  const uint64_t threshold = stream.size() / 32 + 1;
  const auto reported = merged.FrequentItems(threshold);
  for (const auto& [item, count] : truth) {
    if (count < threshold) continue;
    const bool found =
        std::any_of(reported.begin(), reported.end(),
                    [item](const Counter& c) { return c.item == item; });
    EXPECT_TRUE(found) << "missed heavy item " << item;
  }
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, SpaceSavingMergeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cafaro" : "Agarwal";
                         });

// ---------------------------------------------------------------------------
// Worked example from Cafaro et al. §5.2 (k = 5).
// ---------------------------------------------------------------------------

std::vector<Counter> PaperSs1() {
  return {{1, 5}, {2, 7}, {3, 12}, {4, 14}, {5, 18}};
}
std::vector<Counter> PaperSs2() {
  return {{6, 4}, {7, 16}, {8, 17}, {9, 19}, {10, 23}};
}

SpaceSaving FromCounters(const std::vector<Counter>& counters) {
  SpaceSaving ss(5);
  // Feeding ascending by count reproduces the summary exactly (no
  // evictions occur: 5 distinct items, 5 counters).
  std::vector<Counter> ascending = counters;
  SortByCountAscending(ascending);
  for (const Counter& c : ascending) ss.Update(c.item, c.count);
  return ss;
}

TEST(SpaceSavingPaperExampleTest, AgarwalMergeMatchesSection521) {
  SpaceSaving s1 = FromCounters(PaperSs1());
  SpaceSaving s2 = FromCounters(PaperSs2());
  s1.Merge(s2);

  std::map<uint64_t, uint64_t> result;
  for (const Counter& c : s1.Counters()) result[c.item] = c.count;
  const std::map<uint64_t, uint64_t> expected = {
      {5, 1}, {8, 1}, {9, 3}, {10, 7}};
  EXPECT_EQ(result, expected);
}

TEST(SpaceSavingPaperExampleTest, CafaroMergeMatchesSection522) {
  SpaceSaving s1 = FromCounters(PaperSs1());
  SpaceSaving s2 = FromCounters(PaperSs2());
  s1.MergeCafaro(s2);

  std::map<uint64_t, uint64_t> result;
  for (const Counter& c : s1.Counters()) result[c.item] = c.count;
  const std::map<uint64_t, uint64_t> expected = {
      {7, 12}, {5, 13}, {8, 15}, {9, 22}, {10, 28}};
  EXPECT_EQ(result, expected);
}

TEST(SpaceSavingPaperExampleTest, ClosedFormMatchesSection522) {
  const auto merged =
      CafaroClosedFormMergeSpaceSaving(PaperSs1(), PaperSs2(), 5);
  const std::vector<Counter> expected = {
      {7, 12}, {5, 13}, {8, 15}, {9, 22}, {10, 28}};
  EXPECT_EQ(merged, expected);
}

TEST(SpaceSavingTest, ForEpsilonSizesCapacity) {
  EXPECT_EQ(SpaceSaving::ForEpsilon(0.02).capacity(), 50);
}

// ---- Amortized-path equivalence against a textbook reference ----
//
// SpaceSaving's lazy min-heap + flat index are pure representation: the
// query-visible state must match a naive implementation doing an exact
// full-scan min with the same (count, item) eviction tie-break, after
// every single update.

class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(size_t capacity) : capacity_(capacity) {}

  // Seeded from (item, count, over) triples and a stream weight `n`: the
  // reference continuing from some summary's state.
  struct Seed {
    uint64_t item = 0;
    uint64_t count = 0;
    uint64_t over = 0;
  };
  ReferenceSpaceSaving(size_t capacity, const std::vector<Seed>& seeds,
                       uint64_t n)
      : capacity_(capacity), n_(n) {
    for (const Seed& seed : seeds) {
      counts_[seed.item] = {seed.count, seed.over};
    }
  }

  void Update(uint64_t item, uint64_t weight = 1) {
    n_ += weight;
    auto it = counts_.find(item);
    if (it != counts_.end()) {
      it->second.first += weight;
      return;
    }
    if (counts_.size() < capacity_) {
      counts_[item] = {weight, 0};
      return;
    }
    auto victim = counts_.begin();
    for (auto scan = counts_.begin(); scan != counts_.end(); ++scan) {
      if (scan->second.first < victim->second.first ||
          (scan->second.first == victim->second.first &&
           scan->first < victim->first)) {
        victim = scan;
      }
    }
    const uint64_t evicted = victim->second.first;
    counts_.erase(victim);
    counts_[item] = {evicted + weight, evicted};
  }

  std::vector<Counter> Counters() const {
    std::vector<Counter> result;
    for (const auto& [item, entry] : counts_) {
      result.push_back(Counter{item, entry.first});
    }
    SortByCountDescending(result);
    return result;
  }

  uint64_t MinCount() const {
    if (counts_.size() < capacity_) return 0;
    uint64_t min = ~uint64_t{0};
    for (const auto& [item, entry] : counts_) {
      min = std::min(min, entry.first);
    }
    return min;
  }

  uint64_t LowerEstimate(uint64_t item) const {
    auto it = counts_.find(item);
    return it == counts_.end() ? 0 : it->second.first - it->second.second;
  }

  uint64_t n() const { return n_; }

 private:
  size_t capacity_;
  uint64_t n_ = 0;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> counts_;
};

void ExpectMatchesReference(const std::vector<uint64_t>& stream,
                            int capacity) {
  SpaceSaving fast(capacity);
  ReferenceSpaceSaving slow(capacity);
  for (size_t i = 0; i < stream.size(); ++i) {
    fast.Update(stream[i]);
    slow.Update(stream[i]);
    ASSERT_EQ(fast.n(), slow.n()) << "after update " << i;
    ASSERT_EQ(fast.MinCount(), slow.MinCount()) << "after update " << i;
    ASSERT_EQ(fast.Counters(), slow.Counters()) << "after update " << i;
  }
  for (const Counter& counter : slow.Counters()) {
    ASSERT_EQ(fast.LowerEstimate(counter.item),
              slow.LowerEstimate(counter.item))
        << "item " << counter.item;
  }
  EXPECT_EQ(fast.UnderSlack(), 0u);  // Update never introduces slack.
}

TEST(SpaceSavingReferenceTest, ZipfStreamMatchesExactMinReference) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 5000;
  spec.universe = 512;
  ExpectMatchesReference(GenerateStream(spec, 91), 32);
}

TEST(SpaceSavingReferenceTest, RoundRobinTiesMatchReference) {
  // Every counter always has the same count: maximal tie-breaking stress
  // and an eviction on every single update once warm.
  std::vector<uint64_t> stream;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t item = 0; item < 64; ++item) stream.push_back(item);
  }
  ExpectMatchesReference(stream, 16);
}

TEST(SpaceSavingReferenceTest, EvictReinsertChurnMatchesReference) {
  // Alternate a stable heavy set with waves of one-off items, so evicted
  // items return and stale heap snapshots pile up.
  std::vector<uint64_t> stream;
  uint64_t fresh = 1000;
  for (int round = 0; round < 500; ++round) {
    for (uint64_t heavy = 0; heavy < 8; ++heavy) stream.push_back(heavy);
    for (int i = 0; i < 8; ++i) stream.push_back(fresh++);
    stream.push_back(round % 16);
  }
  ExpectMatchesReference(stream, 12);
}

TEST(SpaceSavingReferenceTest, WeightedUpdatesMatchReference) {
  Rng rng(92);
  SpaceSaving fast(8);
  ReferenceSpaceSaving slow(8);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t item = rng.UniformInt(64);
    const uint64_t weight = 1 + rng.UniformInt(5);
    fast.Update(item, weight);
    slow.Update(item, weight);
    ASSERT_EQ(fast.MinCount(), slow.MinCount()) << "after update " << i;
    ASSERT_EQ(fast.Counters(), slow.Counters()) << "after update " << i;
  }
}

// ---- Decoded and merged summaries: the state they do not rebuild ----
//
// Decode and Merge leave the eviction heap to be rebuilt on first use
// and lay the slots out in whatever order the combine produced. None of
// that may be observable: from any such start, every later update must
// match the textbook reference, and equal contents must stay equal (in
// bytes and estimates) under every operation, whatever route built them.

std::vector<uint8_t> Encode(const SpaceSaving& summary) {
  ByteWriter writer;
  summary.EncodeTo(writer);
  return writer.bytes();
}

SpaceSaving Decode(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  std::optional<SpaceSaving> decoded = SpaceSaving::DecodeFrom(reader);
  EXPECT_TRUE(decoded.has_value());
  return std::move(decoded).value();
}

// The reference continuing from `summary`'s query-visible state.
ReferenceSpaceSaving ReferenceFrom(const SpaceSaving& summary) {
  std::vector<ReferenceSpaceSaving::Seed> seeds;
  for (const Counter& counter : summary.Counters()) {
    seeds.push_back({counter.item, counter.count,
                     counter.count - summary.LowerEstimate(counter.item)});
  }
  return ReferenceSpaceSaving(static_cast<size_t>(summary.capacity()), seeds,
                              summary.n());
}

// Whether `summary` is full with at least two counters at the minimum.
bool FullWithTiedMinimum(const SpaceSaving& summary) {
  if (summary.size() != static_cast<size_t>(summary.capacity())) return false;
  const uint64_t min = summary.MinCount();
  size_t at_min = 0;
  for (const Counter& counter : summary.Counters()) {
    if (counter.count == min) ++at_min;
  }
  return at_min >= 2;
}

// The three eviction-heavy streams of the reference tests above, as
// (item, weight) updates: round-robin ties, evict/re-admit churn and
// random weights.
std::vector<std::vector<std::pair<uint64_t, uint64_t>>> EvictionStreams() {
  std::vector<std::pair<uint64_t, uint64_t>> round_robin;
  for (int round = 0; round < 40; ++round) {
    for (uint64_t item = 0; item < 64; ++item) {
      round_robin.push_back({item, 1});
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> churn;
  uint64_t fresh = 1000;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t heavy = 0; heavy < 8; ++heavy) churn.push_back({heavy, 1});
    for (int i = 0; i < 8; ++i) churn.push_back({fresh++, 1});
    churn.push_back({static_cast<uint64_t>(round % 16), 1});
  }
  std::vector<std::pair<uint64_t, uint64_t>> weighted;
  Rng rng(95);
  for (int i = 0; i < 2000; ++i) {
    weighted.push_back({rng.UniformInt(64), 1 + rng.UniformInt(5)});
  }
  return {round_robin, churn, weighted};
}

void ExpectEvictsLikeReference(const SpaceSaving& start) {
  ASSERT_TRUE(FullWithTiedMinimum(start));
  const auto streams = EvictionStreams();
  for (size_t s = 0; s < streams.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    SpaceSaving fast = start;
    ReferenceSpaceSaving slow = ReferenceFrom(start);
    for (size_t i = 0; i < streams[s].size(); ++i) {
      const auto [item, weight] = streams[s][i];
      fast.Update(item, weight);
      slow.Update(item, weight);
      ASSERT_EQ(fast.MinCount(), slow.MinCount()) << "after update " << i;
      const std::vector<Counter> counters = slow.Counters();
      ASSERT_EQ(fast.Counters(), counters) << "after update " << i;
      for (const Counter& counter : counters) {
        ASSERT_EQ(fast.LowerEstimate(counter.item),
                  slow.LowerEstimate(counter.item))
            << "item " << counter.item << " after update " << i;
      }
    }
    EXPECT_EQ(fast.n(), slow.n());
  }
}

TEST(SpaceSavingReferenceTest, DecodedSummaryEvictsLikeReference) {
  // Round-robin over 40 items into 16 counters: every counter ties.
  SpaceSaving source(16);
  for (int round = 0; round < 30; ++round) {
    for (uint64_t item = 0; item < 40; ++item) source.Update(item);
  }
  ExpectEvictsLikeReference(Decode(Encode(source)));
}

TEST(SpaceSavingReferenceTest, MergedSummaryEvictsLikeReference) {
  SpaceSaving a(16);
  SpaceSaving b(16);
  for (int round = 0; round < 30; ++round) {
    for (uint64_t item = 0; item < 40; ++item) a.Update(item);
    for (uint64_t item = 20; item < 50; ++item) b.Update(item, 2);
  }
  SpaceSaving merged = a;
  merged.Merge(b);
  // An Agarwal merge keeps at most k - 1 counters; top it up with fresh
  // items at the merged minimum so the start is full and tied there.
  uint64_t min = ~uint64_t{0};
  for (const Counter& counter : merged.Counters()) {
    min = std::min(min, counter.count);
  }
  for (uint64_t fresh = 5000; merged.size() < 16; ++fresh) {
    merged.Update(fresh, min);
  }
  ExpectEvictsLikeReference(merged);
}

void ExpectSameState(const SpaceSaving& x, const SpaceSaving& y,
                     uint64_t universe) {
  ASSERT_EQ(Encode(x), Encode(y));
  ASSERT_EQ(x.MinCount(), y.MinCount());
  ASSERT_EQ(x.Counters(), y.Counters());
  for (uint64_t item = 0; item < universe; ++item) {
    ASSERT_EQ(x.UpperEstimate(item), y.UpperEstimate(item)) << item;
    ASSERT_EQ(x.LowerEstimate(item), y.LowerEstimate(item)) << item;
  }
}

TEST(SpaceSavingTest, SlotOrderIsUnobservable) {
  constexpr int kCapacity = 24;
  constexpr uint64_t kUniverse = 300;
  const auto filled = [](uint64_t seed) {
    StreamSpec spec;
    spec.kind = StreamKind::kZipf;
    spec.n = 4000;
    spec.universe = kUniverse;
    SpaceSaving summary(kCapacity);
    for (uint64_t item : GenerateStream(spec, seed)) summary.Update(item);
    return summary;
  };
  const SpaceSaving a = filled(101);
  const SpaceSaving b = filled(102);
  const SpaceSaving c = filled(103);
  const SpaceSaving d = filled(104);

  // Equal content by three routes, with different slot layouts.
  SpaceSaving ab = a;
  ab.Merge(b);
  SpaceSaving ba = b;
  ba.Merge(a);
  std::vector<SpaceSaving> routes = {ab, ba, Decode(Encode(ab))};
  for (size_t r = 1; r < routes.size(); ++r) {
    ExpectSameState(routes[0], routes[r], kUniverse);
  }

  Rng rng(105);
  std::vector<uint64_t> evicting;
  for (int i = 0; i < 600; ++i) evicting.push_back(rng.UniformInt(kUniverse));
  const auto update = [&evicting](SpaceSaving& s) {
    for (uint64_t item : evicting) s.Update(item);
  };
  using Step = std::pair<std::string, std::function<void(SpaceSaving&)>>;
  const std::vector<Step> steps = {
      {"update", update},
      {"merge", [&c](SpaceSaving& s) { s.Merge(c); }},
      {"merge_cafaro", [&d](SpaceSaving& s) { s.MergeCafaro(d); }},
      {"shrink", [](SpaceSaving& s) { s.Resize(kCapacity / 2); }},
      {"grow", [](SpaceSaving& s) { s.Resize(kCapacity * 2); }},
      {"update_after_resize", update},
  };
  for (const auto& [name, step] : steps) {
    SCOPED_TRACE(name);
    for (SpaceSaving& route : routes) step(route);
    for (size_t r = 1; r < routes.size(); ++r) {
      ExpectSameState(routes[0], routes[r], kUniverse);
    }
  }
  const auto by_mod3 = [](uint64_t item) -> size_t { return item % 3; };
  const std::vector<SpaceSaving> parts0 = routes[0].Split(3, by_mod3);
  for (size_t r = 1; r < routes.size(); ++r) {
    const std::vector<SpaceSaving> parts = routes[r].Split(3, by_mod3);
    ASSERT_EQ(parts.size(), parts0.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      ExpectSameState(parts0[p], parts[p], kUniverse);
    }
  }
}

TEST(SpaceSavingTest, SelfMergeEqualsMergeWithCopy) {
  // Full (ties at the minimum) and partially filled summaries.
  SpaceSaving full(16);
  for (int round = 0; round < 30; ++round) {
    for (uint64_t item = 0; item < 40; ++item) full.Update(item, item % 3 + 1);
  }
  SpaceSaving partial(16);
  for (uint64_t item = 0; item < 10; ++item) partial.Update(item, item + 1);
  for (const SpaceSaving& start : {full, partial}) {
    SpaceSaving self = start;
    self.Merge(self);
    SpaceSaving with_copy = start;
    const SpaceSaving copy = start;
    with_copy.Merge(copy);
    ExpectSameState(self, with_copy, 64);
    EXPECT_EQ(self.n(), 2 * start.n());
  }
}

TEST(SpaceSavingTest, UpdateBatchMatchesScalarExactly) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 20000;
  spec.universe = 1024;
  const auto stream = GenerateStream(spec, 93);
  SpaceSaving scalar(64);
  for (uint64_t item : stream) scalar.Update(item);
  SpaceSaving batched(64);
  batched.UpdateBatch(stream.data(), stream.size());
  ByteWriter scalar_bytes;
  scalar.EncodeTo(scalar_bytes);
  ByteWriter batched_bytes;
  batched.EncodeTo(batched_bytes);
  EXPECT_EQ(batched_bytes.bytes(), scalar_bytes.bytes());
  EXPECT_EQ(batched.n(), scalar.n());
}

TEST(SpaceSavingTest, DecodeDoesAtMostOneIndexRebuild) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = 30000;
  spec.universe = 4096;
  const auto stream = GenerateStream(spec, 94);
  SpaceSaving ss(512);
  for (uint64_t item : stream) ss.Update(item);
  ByteWriter writer;
  ss.EncodeTo(writer);
  ByteReader reader(writer.bytes());
  const auto decoded = SpaceSaving::DecodeFrom(reader);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_LE(decoded->index_rebuilds(), 1u);
}

TEST(SpaceSavingDeathTest, InvalidConstruction) {
  EXPECT_DEATH(SpaceSaving(1), "capacity");
  EXPECT_DEATH(SpaceSaving::ForEpsilon(0.0), "epsilon");
}

TEST(SpaceSavingTest, MergeFoldsMismatchedCapacitiesToMin) {
  // Mismatched capacities fold to the smaller side; the summary stays
  // sound for the combined stream (bracket holds for every item).
  SpaceSaving a(4);
  SpaceSaving b(8);
  std::map<uint64_t, uint64_t> exact;
  for (uint64_t i = 0; i < 400; ++i) {
    const uint64_t item = i % 11;
    a.Update(item);
    ++exact[item];
  }
  for (uint64_t i = 0; i < 300; ++i) {
    const uint64_t item = i % 7;
    b.Update(item);
    ++exact[item];
  }
  a.Merge(b);
  EXPECT_EQ(a.capacity(), 4);
  EXPECT_EQ(a.n(), 700u);
  for (const auto& [item, f] : exact) {
    EXPECT_LE(a.LowerEstimate(item), f);
    EXPECT_GE(a.UpperEstimate(item), f);
  }
  // Byte-deterministic either way around, including which side folds.
  SpaceSaving c(8);
  for (uint64_t i = 0; i < 300; ++i) c.Update(i % 7);
  SpaceSaving d(4);
  for (uint64_t i = 0; i < 400; ++i) d.Update(i % 11);
  c.MergeCafaro(d);
  EXPECT_EQ(c.capacity(), 4);
  EXPECT_EQ(c.n(), 700u);
}

}  // namespace
}  // namespace mergeable
