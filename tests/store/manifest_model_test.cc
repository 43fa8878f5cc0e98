// The durable log's manifest and quarantine against a reference model.
//
// A seeded script drives a DurableLog over MemStorage: appends of new
// leaves and nodes, superseding copies and out-of-order keys,
// QuarantineLeaf, scrub passes of 0 (the whole manifest), 1 and 7
// records after flipping a payload byte of a random record, and
// restarts (a fresh log's Load over the same storage). The test keeps
// its own std::map / std::set model of what the log must hold: every
// copy ever appended, in append order, so a restart's latest-intact-
// copy-wins rule and a scrub pass's cursor rule are predicted from the
// model alone. After every step every key's ReadRecord,
// FirstQuarantinedIn over random ranges, QuarantinedLeaves and the
// scrub counters must match it; after every restart so must the
// OpenReport's scan fields.
//
// Also: Open() indexes leaves whose copies arrive out of order,
// superseded or undecodable by the latest copy of each; a segment
// holding leaf 0 and a node at index 2^40 opens with both records (no
// structure may be sized by an index read from disk); and the
// background scrubber at a 1 ms interval runs beside appends and
// page-ins (this suite is in CI's TSan list).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

using Key = std::tuple<uint64_t, uint32_t, uint64_t>;  // stream, level, index

constexpr SummaryTag kTag = SummaryTraits<SpaceSaving>::kTag;
// A leaf written under another type's tag: intact, but not a leaf the
// store's Load can decode.
constexpr SummaryTag kOtherTag = SummaryTag::kMisraGries;
constexpr uint64_t kStreams[] = {1, 2, 7};
constexpr uint32_t kLevels[] = {0, 0, 1, 2, 5};

DurableStoreOptions Options() {
  DurableStoreOptions options;
  options.prefix = "model";
  options.segment_bytes = 2048;  // Several segments per run.
  return options;
}

// The record payload of a frame (what ReadRecord returns for it).
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame,
                               const Key& key) {
  const auto& [stream, level, index] = key;
  const std::optional<SegmentRecordView> view =
      VerifySegmentRecord(frame.data(), frame.size(), stream, level, index);
  EXPECT_TRUE(view.has_value());
  if (!view.has_value()) return {};
  const auto* begin = frame.data() + view->payload_offset;
  return std::vector<uint8_t>(begin, begin + view->payload_length);
}

// What the log must hold, kept with std::map and std::set only.
struct Model {
  struct Copy {
    Key key;
    std::vector<uint8_t> payload;
    uint64_t frame_bytes = 0;
    bool corrupt = false;
  };
  std::vector<Copy> copies;             // Every append, in disk order.
  std::map<Key, size_t> manifest;       // Key -> its copy in `copies`.
  std::map<uint64_t, std::set<uint64_t>> quarantine;
  std::optional<Key> cursor;
  ScrubStats stats;
  std::set<Key> ever;  // Every key ever appended or quarantined.

  void Append(Copy copy) {
    ever.insert(copy.key);
    manifest[copy.key] = copies.size();
    copies.push_back(std::move(copy));
  }

  void Quarantine(uint64_t stream, uint64_t index) {
    ever.insert(Key{stream, 0, index});
    if (quarantine[stream].insert(index).second) {
      ++stats.epochs_quarantined;
    }
    manifest.erase(Key{stream, 0, index});
  }

  // A restart: the latest intact copy of each key wins; quarantine,
  // cursor and counters start over with the new log.
  void Restart() {
    manifest.clear();
    for (size_t i = 0; i < copies.size(); ++i) {
      if (!copies[i].corrupt) manifest[copies[i].key] = i;
    }
    quarantine.clear();
    cursor.reset();
    stats = ScrubStats{};
  }

  // The scrubber's cursor rule: min(max_records or all, size) keys in
  // key order after the cursor, wrapping.
  uint64_t Scrub(uint64_t max_records) {
    ++stats.passes;
    if (manifest.empty()) return 0;
    const uint64_t target =
        max_records == 0 ? manifest.size()
                         : std::min<uint64_t>(max_records, manifest.size());
    auto it = cursor.has_value() ? manifest.upper_bound(*cursor)
                                 : manifest.begin();
    std::vector<Key> slice;
    while (slice.size() < target) {
      if (it == manifest.end()) it = manifest.begin();
      slice.push_back(it->first);
      cursor = it->first;
      ++it;
    }
    for (const Key& key : slice) {
      const Copy& copy = copies[manifest.at(key)];
      ++stats.records_verified;
      if (!copy.corrupt) {
        stats.bytes_verified += copy.frame_bytes;
        continue;
      }
      ++stats.corrupt_found;
      if (std::get<1>(key) >= 1) {
        manifest.erase(key);
        ++stats.nodes_repaired;
      } else {
        Quarantine(std::get<0>(key), std::get<2>(key));
      }
    }
    return slice.size();
  }
};

class ManifestModel {
 public:
  explicit ManifestModel(uint64_t seed) : rng_(seed) { Restart(); }

  void Step() {
    const uint64_t roll = rng_.UniformInt(100);
    if (roll < 55) {
      Append();
    } else if (roll < 62) {
      const uint64_t stream = kStreams[rng_.UniformInt(3)];
      const uint64_t index = rng_.UniformInt(next_[{stream, 0}] + 3);
      log_->QuarantineLeaf(stream, index);
      model_.Quarantine(stream, index);
    } else if (roll < 84) {
      if (roll < 74) FlipRandomRecord();
      const uint64_t max_records = kScrubSizes[rng_.UniformInt(3)];
      EXPECT_EQ(log_->ScrubPass(max_records), model_.Scrub(max_records));
    } else if (roll < 90) {
      Restart();
    } else {
      Append();
    }
    Compare();
  }

  const Model& model() const { return model_; }

 private:
  static constexpr uint64_t kScrubSizes[] = {0, 1, 7};

  // A new key at its level's end, a superseding copy of a key below it,
  // or a key past a gap (filled later out of order).
  void Append() {
    const uint64_t stream = kStreams[rng_.UniformInt(3)];
    const uint32_t level = kLevels[rng_.UniformInt(5)];
    uint64_t& next = next_[{stream, level}];
    const uint64_t roll = rng_.UniformInt(10);
    uint64_t index = next;
    if (roll < 3 && next > 0) {
      index = rng_.UniformInt(next);  // Supersede, or fill a gap.
    } else if (roll < 4) {
      index = next + 1 + rng_.UniformInt(4);  // Leave a gap.
    }
    next = std::max(next, index + 1);

    std::vector<uint8_t> summary(rng_.UniformInt(48));
    for (uint8_t& b : summary) b = static_cast<uint8_t>(rng_.Next());
    Model::Copy copy;
    copy.key = Key{stream, level, index};
    std::vector<uint8_t> frame;
    if (level == 0) {
      EpochMeta meta;
      meta.epoch = 100 + index;
      meta.n = rng_.UniformInt(1000);
      const bool decodable = rng_.UniformInt(8) != 0;
      frame = EncodeLeafFrame(stream, index, decodable ? kTag : kOtherTag,
                              meta, summary);
    } else {
      frame = EncodeNodeFrame(stream, level, index, kTag, summary);
    }
    copy.payload = PayloadOf(frame, copy.key);
    copy.frame_bytes = frame.size();
    ASSERT_TRUE(log_->AppendFrame(stream, level, index, frame));
    model_.Append(std::move(copy));
  }

  // Flips one payload byte of a random key's current copy, located on
  // disk as the last intact copy of that key (framing stays intact, so
  // a restart's scan counts it corrupt and moves on).
  void FlipRandomRecord() {
    std::vector<Key> candidates;
    for (const auto& [key, copy] : model_.manifest) {
      const Model::Copy& current = model_.copies[copy];
      if (!current.corrupt && !current.payload.empty()) {
        candidates.push_back(key);
      }
    }
    if (candidates.empty()) return;
    const Key key = candidates[rng_.UniformInt(candidates.size())];
    std::optional<std::pair<std::string, uint64_t>> at;  // file, byte
    for (const std::string& file : storage_.List()) {
      const std::vector<uint8_t> bytes = *storage_.Read(file);
      WalkSegment(bytes.data(), bytes.size(),
                  [&](const SegmentRecordView& record) {
                    if (record.intact &&
                        Key{record.stream, record.level, record.index} ==
                            key) {
                      at = {file, record.payload_offset +
                                      rng_.UniformInt(record.payload_length)};
                    }
                  });
    }
    ASSERT_TRUE(at.has_value());
    std::vector<uint8_t> bytes = *storage_.Read(at->first);
    bytes[at->second] ^= static_cast<uint8_t>(1 + rng_.UniformInt(255));
    ASSERT_TRUE(storage_.Rewrite(at->first, bytes));
    model_.copies[model_.manifest.at(key)].corrupt = true;
  }

  void Restart() {
    log_ = std::make_unique<DurableLog>(&storage_, Options());
    OpenReport report;
    log_->Load(kTag, &report);
    model_.Restart();

    uint64_t corrupt = 0;
    for (const Model::Copy& copy : model_.copies) corrupt += copy.corrupt;
    EXPECT_EQ(report.segments, storage_.List().size());
    EXPECT_EQ(report.records, model_.manifest.size());
    EXPECT_EQ(report.corrupt_records, corrupt);
    EXPECT_EQ(report.torn_tails, 0u);
  }

  void Compare() {
    for (const Key& key : model_.ever) {
      const auto& [stream, level, index] = key;
      const std::optional<std::vector<uint8_t>> got =
          log_->ReadRecord(stream, level, index);
      const auto it = model_.manifest.find(key);
      if (it == model_.manifest.end() || model_.copies[it->second].corrupt) {
        EXPECT_FALSE(got.has_value())
            << stream << "/" << level << "/" << index;
      } else {
        ASSERT_TRUE(got.has_value()) << stream << "/" << level << "/" << index;
        EXPECT_EQ(*got, model_.copies[it->second].payload);
      }
    }
    for (const uint64_t stream : kStreams) {
      const auto it = model_.quarantine.find(stream);
      const std::set<uint64_t> none;
      const std::set<uint64_t>& leaves =
          it == model_.quarantine.end() ? none : it->second;
      EXPECT_EQ(log_->QuarantinedLeaves(stream),
                std::vector<uint64_t>(leaves.begin(), leaves.end()));
      for (int probe = 0; probe < 4; ++probe) {
        const uint64_t bound = next_[{stream, 0}] + 4;
        uint64_t lo = rng_.UniformInt(bound);
        uint64_t hi = rng_.UniformInt(bound);
        if (lo > hi) std::swap(lo, hi);
        std::optional<uint64_t> want;
        const auto first = leaves.lower_bound(lo);
        if (first != leaves.end() && *first <= hi) want = *first;
        EXPECT_EQ(log_->FirstQuarantinedIn(stream, lo, hi), want)
            << stream << " [" << lo << ", " << hi << "]";
      }
    }
    const ScrubStats got = log_->scrub_stats();
    EXPECT_EQ(got.passes, model_.stats.passes);
    EXPECT_EQ(got.records_verified, model_.stats.records_verified);
    EXPECT_EQ(got.bytes_verified, model_.stats.bytes_verified);
    EXPECT_EQ(got.corrupt_found, model_.stats.corrupt_found);
    EXPECT_EQ(got.nodes_repaired, model_.stats.nodes_repaired);
    EXPECT_EQ(got.epochs_quarantined, model_.stats.epochs_quarantined);
  }

  Rng rng_;
  MemStorage storage_;
  std::unique_ptr<DurableLog> log_;
  Model model_;
  std::map<std::pair<uint64_t, uint32_t>, uint64_t> next_;
};

TEST(ManifestModelTest, SeededScriptsMatchTheReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    ManifestModel model(seed);
    for (int step = 0; step < 300 && !::testing::Test::HasFailure();
         ++step) {
      model.Step();
    }
    // The script reached every branch it exists to test.
    const Model& state = model.model();
    uint64_t corrupt = 0;
    for (const Model::Copy& copy : state.copies) corrupt += copy.corrupt;
    EXPECT_GT(state.manifest.size(), 50u);
    EXPECT_GT(corrupt, 0u);
  }
}

SpaceSaving SummaryFor(uint64_t seed) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.1);
  Rng rng(seed);
  for (int i = 0; i < 40; ++i) summary.Update(rng.UniformInt(12));
  return summary;
}

EpochMeta MetaFor(uint64_t epoch, const SpaceSaving& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  return meta;
}

// Open() over leaf copies written out of order, superseded, and once
// made undecodable by a later copy: each stream serves the prefix of
// its latest copies, with their metadata.
TEST(ManifestModelTest, OpenTakesTheLatestLeafCopiesInAnyOrder) {
  constexpr uint64_t kStream = 5;
  constexpr uint64_t kBase = 40;
  // (index, summary seed, decodable), in disk order.
  const std::tuple<uint64_t, uint64_t, bool> writes[] = {
      {0, 1, true}, {1, 2, true}, {3, 3, true},  {2, 4, true},
      {1, 5, true}, {5, 6, true}, {4, 7, false}, {4, 8, true},
      {6, 9, true}, {6, 10, false}};
  MemStorage storage;
  std::map<uint64_t, SpaceSaving> latest;
  for (const auto& [index, seed, decodable] : writes) {
    const SpaceSaving summary = SummaryFor(seed);
    ASSERT_TRUE(storage.Append(
        "model/seg/00000000",
        EncodeLeafFrame(kStream, index, decodable ? kTag : kOtherTag,
                        MetaFor(kBase + index, summary),
                        EncodeSummary(summary))));
    if (decodable) {
      latest.insert_or_assign(index, summary);
    } else {
      latest.erase(index);
    }
  }
  DurableStore<SpaceSaving> store(&storage, Options());
  const OpenReport report = store.Open();
  EXPECT_EQ(report.records, 7u);
  // Leaf 6's latest copy does not decode: the prefix is leaves 0-5.
  ASSERT_EQ(store.EpochCount(kStream), 6u);
  EXPECT_EQ(store.BaseEpoch(kStream), kBase);
  for (uint64_t index = 0; index < 6; ++index) {
    EXPECT_EQ(store.Metas(kStream)[index],
              MetaFor(kBase + index, latest.at(index)));
  }
  // Only the full range pre-warmed; one leaf's answer is its summary.
  const auto one = store.QueryRangePayload(kStream, kBase + 1, kBase + 1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one->payload, EncodeSummary(latest.at(1)));
}

TEST(ManifestModelTest, LeafZeroAndANodeAtTwoToTheFortyOpenTogether) {
  constexpr uint64_t kStream = 3;
  constexpr uint64_t kFarIndex = uint64_t{1} << 40;
  MemStorage storage;
  SpaceSaving summary = SpaceSaving::ForEpsilon(0.1);
  for (uint64_t item = 0; item < 20; ++item) summary.Update(item % 7);
  const std::vector<uint8_t> bytes = EncodeSummary(summary);
  EpochMeta meta;
  meta.epoch = 5;
  meta.n = summary.n();
  const std::vector<uint8_t> leaf =
      EncodeLeafFrame(kStream, 0, kTag, meta, bytes);
  const std::vector<uint8_t> node =
      EncodeNodeFrame(kStream, 3, kFarIndex, kTag, bytes);
  ASSERT_TRUE(storage.Append("model/seg/00000000", leaf));
  ASSERT_TRUE(storage.Append("model/seg/00000000", node));

  DurableStore<SpaceSaving> store(&storage, Options());
  const OpenReport report = store.Open();
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.corrupt_records, 0u);
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(store.log().ReadRecord(kStream, 0, 0),
            PayloadOf(leaf, Key{kStream, 0, 0}));
  EXPECT_EQ(store.log().ReadRecord(kStream, 3, kFarIndex),
            PayloadOf(node, Key{kStream, 3, kFarIndex}));
  EXPECT_EQ(store.ScrubOnce(), 2u);
  EXPECT_EQ(store.scrub_stats().corrupt_found, 0u);
}

TEST(ManifestModelTest, ScrubberRunsBesideAppendsAndPageIns) {
  constexpr uint64_t kStream = 4;
  constexpr uint64_t kLeaves = 200;
  MemStorage storage;
  DurableStoreOptions options = Options();
  options.scrub.interval_ms = 1;
  options.scrub.max_records_per_pass = 7;
  DurableLog log(&storage, options);
  OpenReport report;
  log.Load(kTag, &report);
  log.StartScrubber();

  // Frames for every leaf and every node the leaves complete, appended
  // by one thread while another pages in what is already published.
  std::vector<std::pair<Key, std::vector<uint8_t>>> records;
  for (uint64_t index = 0; index < kLeaves; ++index) {
    EpochMeta meta;
    meta.epoch = index;
    const std::vector<uint8_t> summary(16, static_cast<uint8_t>(index));
    records.push_back({Key{kStream, 0, index},
                       EncodeLeafFrame(kStream, index, kTag, meta, summary)});
    for (uint32_t level = 1; ((index + 1) & ((uint64_t{1} << level) - 1)) == 0;
         ++level) {
      const uint64_t node = index >> level;
      records.push_back({Key{kStream, level, node},
                         EncodeNodeFrame(kStream, level, node, kTag,
                                         summary)});
    }
  }
  std::atomic<size_t> published{0};
  std::thread writer([&] {
    for (const auto& [key, frame] : records) {
      const auto& [stream, level, index] = key;
      ASSERT_TRUE(log.AppendFrame(stream, level, index, frame));
      published.fetch_add(1, std::memory_order_release);
    }
  });
  std::thread reader([&] {
    Rng rng(9);
    for (int read = 0; read < 2000; ++read) {
      const size_t known = published.load(std::memory_order_acquire);
      if (known == 0) continue;
      const auto& [key, frame] = records[rng.UniformInt(known)];
      const auto& [stream, level, index] = key;
      const std::optional<std::vector<uint8_t>> got =
          log.ReadRecord(stream, level, index);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, PayloadOf(frame, key));
    }
  });
  writer.join();
  reader.join();
  // Let the scrubber make two passes over the finished manifest.
  const uint64_t passes = log.scrub_stats().passes;
  for (int wait = 0; wait < 10000 && log.scrub_stats().passes < passes + 2;
       ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  log.StopScrubber();

  const ScrubStats stats = log.scrub_stats();
  EXPECT_GE(stats.passes, passes + 2);
  EXPECT_EQ(stats.corrupt_found, 0u);
  EXPECT_TRUE(log.QuarantinedLeaves(kStream).empty());
  for (const auto& [key, frame] : records) {
    const auto& [stream, level, index] = key;
    EXPECT_EQ(log.ReadRecord(stream, level, index), PayloadOf(frame, key));
  }
}

}  // namespace
}  // namespace mergeable
