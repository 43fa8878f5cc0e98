// DurableStore acceptance: kill-at-every-crash-point restart answers
// byte-identically to an uninterrupted run over real files; seals write
// exactly the expected records in the expected order; a bit-flipped
// segment record is quarantined by the scrubber and its mass folded
// into the error bound exactly; a leaf that rots after Open() is caught
// by the first page-in and quarantined the same way, and every flipped
// byte of a record's frame is caught there; internal-node rot is
// rebuilt from children; page-ins, seals and scrub passes run clean
// concurrently (TSan covers this suite); the one-pass Open() matches a
// tree-free fold of the latest intact leaf copies; a backend that
// cannot truncate a torn tail costs no acknowledged epoch; the typed
// planners serve a store with a quarantined leaf.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/query.h"
#include "mergeable/store/segment.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/random.h"
#include "../aggregate/storage_backends.h"
#include "reference_range.h"

namespace mergeable {
namespace {

constexpr uint64_t kStream = 1;
constexpr double kEpsilon = 0.1;

SpaceSaving MakeEpochSummary(uint64_t epoch) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(700 + epoch);
  for (int i = 0; i < 80; ++i) summary.Update(rng.UniformInt(30));
  return summary;
}

EpochMeta MetaFor(uint64_t epoch, const SpaceSaving& summary) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = summary.n();
  meta.shards_total = 2;
  meta.shards_received = 2;
  return meta;
}

DurableStoreOptions Options() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  return options;
}

// Every record of a segment file, intact or corrupt, in order; the
// scan's totals go to `totals` when it is given.
std::vector<SegmentRecordView> RecordsOf(const std::vector<uint8_t>& bytes,
                                         SegmentScanTotals* totals = nullptr) {
  std::vector<SegmentRecordView> records;
  const SegmentScanTotals scan =
      WalkSegment(bytes.data(), bytes.size(),
                  [&](const SegmentRecordView& view) {
                    records.push_back(view);
                  });
  if (totals != nullptr) *totals = scan;
  return records;
}

// Seals `epochs` summaries; returns how many Seal() calls succeeded
// before the first failure.
uint64_t SealUpTo(DurableStore<SpaceSaving>& store, uint64_t epochs) {
  for (uint64_t e = 0; e < epochs; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    if (!store.Seal(kStream, summary, MetaFor(e, summary))) return e;
  }
  return epochs;
}

// Every range payload over [0, count).
std::vector<std::vector<uint8_t>> AllRangePayloads(
    DurableStore<SpaceSaving>& store, uint64_t count) {
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t lo = 0; lo < count; ++lo) {
    for (uint64_t hi = lo; hi < count; ++hi) {
      const auto outcome = store.QueryRangePayload(kStream, lo, hi);
      EXPECT_TRUE(outcome.has_value()) << "[" << lo << ", " << hi << "]";
      if (outcome.has_value()) payloads.push_back(*outcome->payload);
    }
  }
  return payloads;
}

TEST(DurableStoreTest, RestartOverFilesAnswersByteIdentically) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 9;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  DurableStore<SpaceSaving> reopened(storage.get(), Options());
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.streams, 1u);
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(report.corrupt_records, 0u);
  EXPECT_EQ(report.torn_tails, 0u);
  EXPECT_GT(report.nodes_prewarmed, 0u);
  EXPECT_EQ(reopened.EpochCount(kStream), kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The durable write sequence: sealing 8 epochs appends, per epoch, the
// leaf record and then each dyadic node the epoch completes (levels 1
// to 3), each one SEG1 frame around its leaf or node payload, one
// backend write per record. The crash matrix's write indices and the
// disk bytes per epoch are functions of this sequence: a leaf frame is
// 88 bytes plus its summary, a node frame 44.
TEST(DurableStoreTest, SealWritesTheExpectedRecordsInOrder) {
  constexpr uint64_t kEpochs = 8;
  MemStorage backend;
  CrashingStorage durable(&backend);
  {
    DurableStore<SpaceSaving> store(&durable, Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  }
  // Canonical summary payload per (level, index), computed by hand.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<uint8_t>> value;
  std::vector<uint8_t> expected;
  uint64_t records = 0;
  const auto append = [&](uint32_t level, uint64_t index,
                          const std::vector<uint8_t>& frame) {
    const size_t overhead = level == 0 ? 88 : 44;
    EXPECT_EQ(frame.size(), overhead + value.at({level, index}).size());
    expected.insert(expected.end(), frame.begin(), frame.end());
    ++records;
  };
  for (uint64_t e = 0; e < kEpochs; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    value[{0, e}] = EncodeSummary(summary);
    append(0, e,
           EncodeLeafFrame(kStream, e, SummaryTag::kSpaceSaving,
                           MetaFor(e, summary), value[{0, e}]));
    for (const DyadicNode& node : NodesCompletedBySeal(e)) {
      SpaceSaving merged = DecodeSummaryOrDie<SpaceSaving>(
          value[{node.level - 1, node.index * 2}]);
      CanonicalMergeInto(merged,
                         DecodeSummaryOrDie<SpaceSaving>(
                             value[{node.level - 1, node.index * 2 + 1}]));
      value[{node.level, node.index}] = EncodeSummary(merged);
      append(node.level, node.index,
             EncodeNodeFrame(kStream, node.level, node.index,
                             SummaryTag::kSpaceSaving,
                             value[{node.level, node.index}]));
    }
  }
  EXPECT_EQ(records, 2 * kEpochs - 1);
  EXPECT_EQ(value.count({3, 0}), 1u);
  EXPECT_EQ(durable.List(),
            std::vector<std::string>({"durable/seg/00000000"}));
  EXPECT_EQ(*durable.Read("durable/seg/00000000"), expected);
  EXPECT_EQ(durable.writes_attempted(), records);
}

// A backend that counts the reads reaching it (everything forwards).
class CountingReadStorage : public Storage {
 public:
  explicit CountingReadStorage(Storage* inner) : inner_(inner) {}
  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override {
    return inner_->Append(file, bytes);
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override {
    return inner_->Rewrite(file, bytes);
  }
  bool Truncate(const std::string& file, uint64_t size) override {
    return inner_->Truncate(file, size);
  }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    ++reads_;
    return inner_->Read(file);
  }
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override {
    ++reads_;
    return inner_->ReadRange(file, offset, length);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  uint64_t reads() const { return reads_; }

 private:
  Storage* inner_;
  mutable uint64_t reads_ = 0;
};

// A seal writes its leaf and every node it completes through the node
// cache, so building each node folds bytes already in hand: sealing
// epochs that complete level-1 to level-3 nodes reads nothing back.
TEST(DurableStoreTest, SealReadsNothingBack) {
  constexpr uint64_t kEpochs = 8;
  MemStorage inner;
  CountingReadStorage durable(&inner);
  DurableStore<SpaceSaving> store(&durable, Options());
  store.Open();
  const uint64_t reads_at_open = durable.reads();
  ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  EXPECT_EQ(store.stats().nodes_built, kEpochs - 1);  // Up to node (3, 0).
  EXPECT_EQ(durable.reads(), reads_at_open);
  EXPECT_EQ(store.stats().bytes_read, 0u);
  EXPECT_EQ(store.cache_stats().misses, 0u);
}

TEST(DurableStoreTest, SegmentRollKeepsEveryRecordRecoverable) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStoreOptions options = Options();
  options.segment_bytes = 256;  // Tiny: force many rolls.
  constexpr uint64_t kEpochs = 12;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), options);
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  // Many segment files actually exist.
  uint64_t segments = 0;
  for (const std::string& name : storage->List()) {
    if (name.rfind("durable/seg/", 0) == 0) ++segments;
  }
  EXPECT_GT(segments, 2u);
  DurableStore<SpaceSaving> reopened(storage.get(), options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.segments, segments);
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The tentpole acceptance: a crash injected at EVERY durable write
// boundary, in every mode, over REAL FILES — restart recovers a
// contiguous epoch prefix that answers byte-identically to the
// uninterrupted run, with at least every epoch whose Seal() was
// acknowledged present.
TEST(DurableStoreTest, KillAtEveryCrashPointRestartsByteIdentically) {
  constexpr uint64_t kEpochs = 8;

  // Reference: uninterrupted run over files.
  BackendFactory factory(BackendKind::kFile);
  uint64_t total_writes = 0;
  std::vector<std::vector<uint8_t>> reference;
  {
    auto storage = factory.Make();
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
    total_writes = storage->writes_attempted();
  }
  ASSERT_GE(total_writes, kEpochs);

  for (const CrashPoint& point : CrashMatrix(total_writes, /*seed=*/17)) {
    SCOPED_TRACE(std::string("crash ") + ToString(point.mode) +
                 " at write " + std::to_string(point.write_index));
    auto storage = factory.Make(point);
    uint64_t acknowledged = 0;
    {
      DurableStore<SpaceSaving> store(storage.get(), Options());
      acknowledged = SealUpTo(store, kEpochs);
    }
    ASSERT_TRUE(storage->crashed());

    storage->Restart();
    DurableStore<SpaceSaving> reopened(storage.get(), Options());
    const OpenReport report = reopened.Open();
    if (!reopened.HasStream(kStream)) {
      // Nothing recovered: legal only when nothing was ever acknowledged.
      EXPECT_EQ(acknowledged, 0u);
      continue;
    }
    const uint64_t recovered = reopened.EpochCount(kStream);
    // Leaf-first sealing: every acknowledged epoch is durable. A crash
    // mid-seal may additionally leave the in-flight leaf durable.
    EXPECT_GE(recovered, acknowledged);
    EXPECT_LE(recovered, kEpochs);
    EXPECT_EQ(reopened.BaseEpoch(kStream), 0u);
    // Byte-identical answers over everything recovered.
    size_t at = 0;
    for (uint64_t lo = 0; lo < recovered; ++lo) {
      for (uint64_t hi = lo; hi < kEpochs; ++hi) {
        const size_t reference_index = at++;
        if (hi >= recovered) continue;
        const auto outcome = reopened.QueryRangePayload(kStream, lo, hi);
        ASSERT_TRUE(outcome.has_value())
            << "[" << lo << ", " << hi << "]";
        EXPECT_EQ(*outcome->payload, reference[reference_index])
            << "[" << lo << ", " << hi << "]";
      }
    }
    (void)report;
  }
}

// Scrub detects a bit-flipped LEAF record, quarantines the epoch, and
// the query bound widens by exactly the quarantined mass — the same
// arithmetic as AccumulateEpsilonPartial, asserted field by field.
TEST(DurableStoreTest, BitFlippedLeafIsQuarantinedWithExactEpsilon) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 6;
  constexpr uint64_t kRotten = 3;
  DurableStore<SpaceSaving> store(storage.get(), Options());
  ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  const auto healthy = store.QueryRangePayload(kStream, 0, kEpochs - 1);
  ASSERT_TRUE(healthy.has_value());
  EXPECT_FALSE(healthy->partial);

  // Flip one payload bit inside epoch kRotten's leaf record on disk.
  const std::string segment_file = "durable/seg/00000000";
  auto bytes = storage->Read(segment_file);
  ASSERT_TRUE(bytes.has_value());
  bool flipped = false;
  for (const SegmentRecordView& record : RecordsOf(*bytes)) {
    if (record.level == 0 && record.index == kRotten) {
      (*bytes)[record.offset + record.length / 2] ^= 0x04;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  ASSERT_TRUE(storage->Rewrite(segment_file, *bytes));

  // One synchronous scrub pass finds it.
  EXPECT_GT(store.ScrubOnce(), 0u);
  const ScrubStats stats = store.scrub_stats();
  EXPECT_EQ(stats.corrupt_found, 1u);
  EXPECT_EQ(stats.epochs_quarantined, 1u);
  EXPECT_EQ(stats.nodes_repaired, 0u);
  EXPECT_EQ(store.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kRotten}));

  // A range crossing the quarantined epoch clamps to the prefix and
  // carries the EXACT widened bound.
  const auto outcome = store.QueryRangePayload(kStream, 0, kEpochs - 1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->covered_hi, kRotten - 1);
  const EpsilonReport expected = AccumulateEpsilonPartial(
      store.Metas(kStream), 0, kEpochs - 1, kRotten - 1, kEpsilon);
  EXPECT_EQ(outcome->eps.lost_mass, expected.lost_mass);
  EXPECT_FALSE(outcome->eps.lost_mass_estimated);
  EXPECT_EQ(outcome->eps.n_received, expected.n_received);
  EXPECT_EQ(outcome->eps.received_bound, expected.received_bound);
  EXPECT_EQ(outcome->eps.full_stream_bound, expected.full_stream_bound);
  // The uncovered mass is every byte of epochs [kRotten, kEpochs):
  // nothing estimated, counted to the byte.
  uint64_t uncovered = 0;
  const auto& metas = store.Metas(kStream);
  for (uint64_t e = kRotten; e < kEpochs; ++e) uncovered += metas[e].n;
  EXPECT_EQ(outcome->eps.lost_mass, uncovered);
  // And the answered prefix is byte-identical to querying it directly.
  const auto prefix = store.QueryRangePayload(kStream, 0, kRotten - 1);
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*outcome->payload, *prefix->payload);

  // A range STARTING on the quarantined epoch is refused; ranges
  // strictly before it stay full-fidelity.
  EXPECT_FALSE(
      store.QueryRangePayload(kStream, kRotten, kEpochs - 1).has_value());
  const auto before = store.QueryRangePayload(kStream, 0, kRotten - 1);
  ASSERT_TRUE(before.has_value());
  EXPECT_FALSE(before->partial);
}

// Internal-node rot is derived data: the scrubber drops the record from
// the manifest (a later read rebuilds it from its children and
// re-appends it), serving is untouched, restart skips the rotted
// original, and nothing is quarantined.
TEST(DurableStoreTest, RottedInternalNodeIsRebuiltFromChildren) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 8;
  std::vector<std::vector<uint8_t>> reference;
  DurableStoreOptions options = Options();
  {
    DurableStore<SpaceSaving> store(storage.get(), options);
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);

    const std::string segment_file = "durable/seg/00000000";
    auto bytes = storage->Read(segment_file);
    ASSERT_TRUE(bytes.has_value());
    bool flipped = false;
    for (const SegmentRecordView& record : RecordsOf(*bytes)) {
      if (record.level >= 1) {
        (*bytes)[record.offset + record.length / 2] ^= 0x20;
        flipped = true;
        break;
      }
    }
    ASSERT_TRUE(flipped);
    ASSERT_TRUE(storage->Rewrite(segment_file, *bytes));

    EXPECT_GT(store.ScrubOnce(), 0u);
    const ScrubStats stats = store.scrub_stats();
    EXPECT_EQ(stats.corrupt_found, 1u);
    EXPECT_EQ(stats.nodes_repaired, 1u);
    EXPECT_EQ(stats.epochs_quarantined, 0u);
    EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
    // Serving is untouched by derived-data rot.
    EXPECT_EQ(AllRangePayloads(store, kEpochs), reference);
    // A second pass over the repaired manifest is clean.
    store.ScrubOnce();
    EXPECT_EQ(store.scrub_stats().corrupt_found, 1u);
  }
  // Restart: latest-wins replays the repair over the rotted original.
  DurableStore<SpaceSaving> reopened(storage.get(), options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.corrupt_records, 1u);  // The rotted original, skipped.
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The background scrubber thread verifies records while seals and
// queries keep running — the TSan job runs this suite with the real
// thread active.
TEST(DurableStoreTest, BackgroundScrubberRunsCleanAlongsideSealsAndQueries) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStoreOptions options = Options();
  options.scrub.interval_ms = 1;
  DurableStore<SpaceSaving> store(storage.get(), options);
  ASSERT_EQ(SealUpTo(store, 4), 4u);

  store.StartScrubber();
  for (uint64_t e = 4; e < 24; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(e, summary)));
    const auto outcome = store.QueryRangePayload(kStream, 0, e);
    ASSERT_TRUE(outcome.has_value());
  }
  store.StopScrubber();
  const ScrubStats stats = store.scrub_stats();
  EXPECT_GT(stats.passes, 0u);
  EXPECT_EQ(stats.corrupt_found, 0u);
  EXPECT_EQ(store.EpochCount(kStream), 24u);
}

// Disk-full during a seal: the failed epoch is NOT half-sealed — the
// store still serves everything durable, and the SAME epoch seals
// cleanly once space returns.
TEST(DurableStoreTest, EnospcSealFailsCleanAndRetries) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStore<SpaceSaving> store(storage.get(), Options());
  ASSERT_EQ(SealUpTo(store, 3), 3u);

  storage->set_disk_full(true);
  const SpaceSaving summary = MakeEpochSummary(3);
  EXPECT_FALSE(store.Seal(kStream, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(kStream), 3u);  // Nothing half-applied.
  const auto during = store.QueryRangePayload(kStream, 0, 2);
  ASSERT_TRUE(during.has_value());  // Queries keep serving.

  storage->set_disk_full(false);
  EXPECT_TRUE(store.Seal(kStream, summary, MetaFor(3, summary)));
  EXPECT_EQ(store.EpochCount(kStream), 4u);
  const auto after = store.QueryRangePayload(kStream, 0, 3);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->partial);
}

// MemStorage works as the durable backend too (the test double the
// chaos harness uses); the store is backend-agnostic.
TEST(DurableStoreTest, MemBackendRoundTrips) {
  BackendFactory factory(BackendKind::kMem);
  auto storage = factory.Make();
  constexpr uint64_t kEpochs = 5;
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(storage.get(), Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    reference = AllRangePayloads(store, kEpochs);
  }
  DurableStore<SpaceSaving> reopened(storage.get(), Options());
  reopened.Open();
  EXPECT_EQ(AllRangePayloads(reopened, kEpochs), reference);
}

// The one-pass Open() against a tree-free reference: a log holding a
// superseding copy of a node, a later checksum-corrupt copy of a leaf
// (the earlier copy wins), a later intact-SEG1 copy of a leaf whose
// payload is no leaf record (it ends the prefix) and a torn tail must
// open exactly as the prefix rule applied to the latest intact leaf
// copies says, and answer every range as ReferenceRange folds those
// leaves.
TEST(DurableStoreTest, OneScanOpenMatchesStoreOpenOverLatestWinsFiles) {
  constexpr uint64_t kOther = 2;
  constexpr uint64_t kEpochs = 8;
  constexpr uint64_t kOtherEpochs = 4;
  constexpr uint64_t kRotLeaf = 2;
  constexpr uint64_t kBadLeaf = 5;
  DurableStoreOptions options = Options();
  options.segment_bytes = 512;  // Several segments: latest-wins spans files.
  MemStorage durable;
  std::vector<uint8_t> superseding;
  {
    DurableStore<SpaceSaving> store(&durable, options);
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
    for (uint64_t e = 0; e < kOtherEpochs; ++e) {
      const SpaceSaving summary = MakeEpochSummary(100 + e);
      ASSERT_TRUE(store.Seal(kOther, summary, MetaFor(10 + e, summary)));
    }
    // An undecodable copy of node (1, 0), then the intact copy over it.
    DurableLog& log = store.log();
    superseding = *log.ReadRecord(kStream, 1, 0);
    const std::vector<uint8_t> undecodable = {9, 9, 9};
    ASSERT_TRUE(log.AppendFrame(
        kStream, 1, 0,
        EncodeSegmentFrame(kStream, 1, 0, undecodable.data(),
                           undecodable.size())));
    ASSERT_TRUE(log.AppendFrame(
        kStream, 1, 0,
        EncodeSegmentFrame(kStream, 1, 0, superseding.data(),
                           superseding.size())));
  }
  std::string last_segment;
  for (const std::string& name : durable.List()) {
    if (name.rfind("durable/seg/", 0) == 0) last_segment = name;
  }
  ASSERT_NE(last_segment, "durable/seg/00000000");
  // A later, checksum-corrupt copy of leaf kRotLeaf.
  const SpaceSaving other = MakeEpochSummary(999);
  std::vector<uint8_t> rotted =
      EncodeLeafFrame(kStream, kRotLeaf, SummaryTag::kSpaceSaving,
                      MetaFor(kRotLeaf, other), EncodeSummary(other));
  rotted[rotted.size() / 2] ^= 0x08;
  ASSERT_TRUE(durable.Append(last_segment, rotted));
  // A later copy of leaf kBadLeaf whose SEG1 frame is intact but whose
  // payload is no leaf record.
  const std::vector<uint8_t> bad_leaf = {1, 2, 3};
  ASSERT_TRUE(durable.Append(
      last_segment, EncodeSegmentFrame(kStream, 0, kBadLeaf, bad_leaf.data(),
                                       bad_leaf.size())));
  // A torn tail: the first half of one more frame.
  const std::vector<uint8_t> filler(64, 5);
  std::vector<uint8_t> torn = EncodeSegmentFrame(
      kStream, 0, kEpochs, filler.data(), filler.size());
  torn.resize(torn.size() / 2);
  ASSERT_TRUE(durable.Append(last_segment, torn));

  // The reference: every segment scanned in order, every intact record
  // applied latest-wins, then each stream's prefix of leaf copies that
  // decode, start at index 0 and keep epochs contiguous.
  OpenReport expected;
  std::set<std::tuple<uint64_t, uint32_t, uint64_t>> keys;
  std::map<uint64_t, std::map<uint64_t, std::vector<uint8_t>>> latest;
  for (const std::string& name : durable.List()) {
    if (name.rfind("durable/seg/", 0) != 0) continue;
    ++expected.segments;
    const std::vector<uint8_t> bytes = *durable.Read(name);
    SegmentScanTotals scan;
    for (const SegmentRecordView& record : RecordsOf(bytes, &scan)) {
      if (!record.intact) continue;
      keys.insert({record.stream, record.level, record.index});
      if (record.level == 0) {
        const auto payload = bytes.begin() + record.payload_offset;
        latest[record.stream][record.index].assign(
            payload, payload + record.payload_length);
      }
    }
    expected.corrupt_records += scan.corrupt_records;
    if (scan.torn_tail) ++expected.torn_tails;
  }
  expected.records = keys.size();
  struct ReferenceStream {
    std::vector<EpochMeta> metas;
    std::vector<std::vector<uint8_t>> leaves;  // Summary payloads.
  };
  std::map<uint64_t, ReferenceStream> reference;
  for (const auto& [stream, copies] : latest) {
    ReferenceStream ref;
    for (const auto& [index, bytes] : copies) {
      const std::optional<LeafRecordView> leaf = ViewLeafRecord(
          bytes.data(), bytes.size(), SummaryTag::kSpaceSaving);
      if (index != ref.metas.size() || !leaf.has_value()) break;
      if (index > 0 && leaf->meta.epoch != ref.metas[0].epoch + index) break;
      ref.metas.push_back(leaf->meta);
      ref.leaves.emplace_back(leaf->summary,
                              leaf->summary + leaf->summary_size);
    }
    if (ref.metas.empty()) continue;
    expected.epochs += ref.metas.size();
    expected.nodes_prewarmed += DyadicCover(0, ref.metas.size() - 1).size();
    reference[stream] = std::move(ref);
  }
  expected.streams = reference.size();

  DurableStore<SpaceSaving> reopened(&durable, options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.streams, expected.streams);
  EXPECT_EQ(report.segments, expected.segments);
  EXPECT_EQ(report.records, expected.records);
  EXPECT_EQ(report.corrupt_records, expected.corrupt_records);
  EXPECT_EQ(report.torn_tails, expected.torn_tails);
  EXPECT_EQ(report.epochs, expected.epochs);
  EXPECT_EQ(report.nodes_prewarmed, expected.nodes_prewarmed);
  // The scenario did what it says.
  EXPECT_EQ(report.corrupt_records, 1u);
  EXPECT_EQ(report.torn_tails, 1u);
  EXPECT_EQ(reopened.EpochCount(kStream), kBadLeaf);
  EXPECT_EQ(reopened.EpochCount(kOther), kOtherEpochs);
  EXPECT_EQ(*reopened.log().ReadRecord(kStream, 1, 0), superseding);

  for (const uint64_t stream : {kStream, kOther}) {
    SCOPED_TRACE("stream " + std::to_string(stream));
    ASSERT_TRUE(reopened.HasStream(stream));
    const ReferenceStream& ref = reference[stream];
    const uint64_t base = ref.metas[0].epoch;
    const uint64_t count = ref.metas.size();
    EXPECT_EQ(reopened.BaseEpoch(stream), base);
    EXPECT_EQ(reopened.Metas(stream), ref.metas);
    for (uint64_t lo = base; lo < base + count; ++lo) {
      for (uint64_t hi = lo; hi < base + count; ++hi) {
        const auto got = reopened.QueryRangePayload(stream, lo, hi);
        ASSERT_TRUE(got.has_value()) << "[" << lo << ", " << hi << "]";
        EXPECT_EQ(*got->payload, ReferenceRange<SpaceSaving>(
                                     ref.leaves, lo - base, hi - base))
            << "[" << lo << ", " << hi << "]";
      }
    }
  }
}

// Flips one byte of the first record of (kStream, level, index) in the
// first segment file, `at` bytes into its frame (the middle when
// std::nullopt). Returns the frame's length, 0 if the record is absent.
uint64_t FlipRecordByte(Storage& storage, uint32_t level, uint64_t index,
                        std::optional<uint64_t> at = std::nullopt) {
  const std::string segment_file = "durable/seg/00000000";
  std::vector<uint8_t> bytes = *storage.Read(segment_file);
  for (const SegmentRecordView& record : RecordsOf(bytes)) {
    if (record.stream != kStream || record.level != level ||
        record.index != index) {
      continue;
    }
    bytes[record.offset + at.value_or(record.length / 2)] ^= 0x01;
    if (!storage.Rewrite(segment_file, bytes)) return 0;
    return record.length;
  }
  return 0;
}

// A leaf that rots on disk after Open() is found by the first cold query
// that pages it in, and quarantined exactly as the scrubber quarantines
// it: the same clamped answer, the same eps field by field, and a range
// that starts on it is refused.
TEST(DurableStoreTest, LeafRottedAfterOpenIsQuarantinedAtPageIn) {
  constexpr uint64_t kEpochs = 6;
  // [0, kRotten] is covered by node (2, 0) and the leaf itself; Open()
  // pre-warms only (2, 0) and (1, 2), so the leaf is cold.
  constexpr uint64_t kRotten = 4;
  BackendFactory factory(BackendKind::kFile);
  auto paged_storage = factory.Make();
  auto scrubbed_storage = factory.Make();
  for (Storage* storage : {static_cast<Storage*>(paged_storage.get()),
                           static_cast<Storage*>(scrubbed_storage.get())}) {
    DurableStore<SpaceSaving> store(storage, Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  }
  DurableStore<SpaceSaving> paged(paged_storage.get(), Options());
  DurableStore<SpaceSaving> scrubbed(scrubbed_storage.get(), Options());
  ASSERT_EQ(paged.Open().epochs, kEpochs);
  ASSERT_EQ(scrubbed.Open().epochs, kEpochs);
  ASSERT_GT(FlipRecordByte(*paged_storage, 0, kRotten), 0u);
  ASSERT_GT(FlipRecordByte(*scrubbed_storage, 0, kRotten), 0u);

  scrubbed.ScrubOnce();
  ASSERT_EQ(scrubbed.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kRotten}));
  EXPECT_TRUE(paged.QuarantinedLeaves(kStream).empty());  // Not yet read.

  const auto got = paged.QueryRangePayload(kStream, 0, kRotten);
  const auto want = scrubbed.QueryRangePayload(kStream, 0, kRotten);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(paged.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kRotten}));
  EXPECT_EQ(paged.scrub_stats().epochs_quarantined, 1u);
  EXPECT_TRUE(got->partial);
  EXPECT_EQ(got->covered_hi, kRotten - 1);
  EXPECT_EQ(got->covered_hi, want->covered_hi);
  EXPECT_EQ(*got->payload, *want->payload);
  const EpsilonReport expected = AccumulateEpsilonPartial(
      paged.Metas(kStream), 0, kRotten, kRotten - 1, kEpsilon);
  for (const EpsilonReport& eps : {got->eps, want->eps}) {
    EXPECT_EQ(eps.lost_mass, expected.lost_mass);
    EXPECT_EQ(eps.lost_mass_estimated, expected.lost_mass_estimated);
    EXPECT_EQ(eps.n_received, expected.n_received);
    EXPECT_EQ(eps.received_bound, expected.received_bound);
    EXPECT_EQ(eps.full_stream_bound, expected.full_stream_bound);
  }
  EXPECT_FALSE(paged.QueryRangePayload(kStream, kRotten, kEpochs - 1));
  EXPECT_FALSE(scrubbed.QueryRangePayload(kStream, kRotten, kEpochs - 1));
  // The quarantined record left the manifest: scrubbing finds nothing.
  paged.ScrubOnce();
  EXPECT_EQ(paged.scrub_stats().corrupt_found, 0u);
}

// Every byte of one leaf frame and one internal-node frame, the 8 bytes
// of the SEG1 checksum trailer included, flipped in turn after Open().
// Each flip is caught by the first page-in, which verifies the checksum
// as the scrubber does: the leaf is quarantined and the query clamped;
// the node is rebuilt from its children, answers byte-identically and
// is re-appended. Either way the manifest no longer points at the
// flipped frame, so the next ScrubOnce() finds nothing.
TEST(DurableStoreTest, EveryServedByteFlipIsCaughtAtPageIn) {
  constexpr uint64_t kEpochs = 6;
  MemStorage pristine;
  {
    DurableStore<SpaceSaving> store(&pristine, Options());
    ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  }
  struct Target {
    uint32_t level;
    uint64_t index;
    uint64_t lo, hi;  // A query that pages the record in after Open().
  };
  for (const Target target : {Target{0, 4, 0, 4}, Target{1, 1, 2, 3}}) {
    SCOPED_TRACE("record (" + std::to_string(target.level) + ", " +
                 std::to_string(target.index) + ")");
    const bool leaf = target.level == 0;
    std::vector<uint8_t> answer;
    std::vector<uint8_t> record;
    uint64_t length = 0;
    {
      MemStorage storage(pristine);
      DurableStore<SpaceSaving> store(&storage, Options());
      store.Open();
      answer = *store.QueryRangePayload(kStream, target.lo, target.hi)
                    ->payload;
      record = *store.log().ReadRecord(kStream, target.level, target.index);
      length = FlipRecordByte(storage, target.level, target.index, 0);
    }
    ASSERT_GT(length, 8u);
    for (uint64_t at = 0; at < length; ++at) {
      SCOPED_TRACE("byte " + std::to_string(at));
      MemStorage storage(pristine);
      DurableStore<SpaceSaving> store(&storage, Options());
      store.Open();
      ASSERT_EQ(FlipRecordByte(storage, target.level, target.index, at),
                length);
      const auto out = store.QueryRangePayload(kStream, target.lo, target.hi);
      ASSERT_TRUE(out.has_value());
      if (leaf) {
        EXPECT_TRUE(out->partial);
        EXPECT_EQ(out->covered_hi, target.index - 1);
        EXPECT_EQ(store.QuarantinedLeaves(kStream),
                  std::vector<uint64_t>({target.index}));
      } else {
        EXPECT_FALSE(out->partial);
        EXPECT_EQ(*out->payload, answer);
        EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
        // A caught node flip costs one rebuild and one re-append.
        EXPECT_EQ(store.stats().nodes_built, 1u);
        EXPECT_EQ(*store.log().ReadRecord(kStream, target.level,
                                          target.index),
                  record);
      }
      store.ScrubOnce();
      const ScrubStats scrub = store.scrub_stats();
      EXPECT_EQ(scrub.corrupt_found, 0u);
      EXPECT_EQ(scrub.epochs_quarantined, leaf ? 1u : 0u);
      EXPECT_EQ(scrub.nodes_repaired, 0u);
    }
  }
}

// Page-ins, seals and scrub passes at once over real files: query
// threads with a cache far smaller than the working set (so queries
// miss and page in), a sealing thread, and a scrubbing thread. Seals
// are serialized with queries by a reader-writer lock, as the epoch
// service's lock serializes them; page-ins and scrub passes take no
// lock of the test's. TSan covers this suite.
TEST(DurableStoreTest, ConcurrentColdQueriesSealsAndScrubsOverFiles) {
  constexpr uint64_t kFirst = 16;
  constexpr uint64_t kTotal = 40;
  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 150;
  constexpr int kScrubPasses = 20;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  DurableStoreOptions options = Options();
  options.store.cache_capacity = 2;
  options.segment_bytes = 4096;  // Segments roll while the threads run.
  DurableStore<SpaceSaving> store(storage.get(), options);
  ASSERT_EQ(SealUpTo(store, kFirst), kFirst);

  std::shared_mutex serving;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(90 + t);
      for (int q = 0; q < kQueriesPerThread; ++q) {
        std::shared_lock<std::shared_mutex> lock(serving);
        const uint64_t count = store.EpochCount(kStream);
        const uint64_t lo = rng.UniformInt(count);
        const uint64_t hi = lo + rng.UniformInt(count - lo);
        const auto out = store.QueryRangePayload(kStream, lo, hi);
        if (out.has_value() && !out->partial) {
          answered.fetch_add(1);
        } else {
          refused.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int p = 0; p < kScrubPasses; ++p) store.ScrubOnce();
  });
  bool sealed = true;
  for (uint64_t e = kFirst; e < kTotal; ++e) {
    const SpaceSaving summary = MakeEpochSummary(e);
    std::unique_lock<std::shared_mutex> lock(serving);
    sealed = store.Seal(kStream, summary, MetaFor(e, summary)) && sealed;
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(sealed);
  EXPECT_EQ(answered.load(), uint64_t{kQueryThreads} * kQueriesPerThread);
  EXPECT_EQ(refused.load(), 0u);
  EXPECT_GT(store.cache_stats().misses, 0u);
  const ScrubStats scrub = store.scrub_stats();
  EXPECT_EQ(scrub.passes, static_cast<uint64_t>(kScrubPasses));
  EXPECT_EQ(scrub.corrupt_found, 0u);
  EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
  EXPECT_EQ(store.node_append_failures(), 0u);
  // What was served is what a clean restart serves.
  DurableStore<SpaceSaving> reopened(storage.get(), options);
  EXPECT_EQ(reopened.Open().epochs, kTotal);
  EXPECT_EQ(AllRangePayloads(store, kTotal),
            AllRangePayloads(reopened, kTotal));
}

// A backend that refuses every Truncate (everything else forwards), as
// when the tail of the newest segment cannot be shrunk.
class RefusingTruncateStorage : public Storage {
 public:
  explicit RefusingTruncateStorage(Storage* inner) : inner_(inner) {}
  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override {
    return inner_->Append(file, bytes);
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override {
    return inner_->Rewrite(file, bytes);
  }
  bool Truncate(const std::string&, uint64_t) override {
    ++refused_;
    return false;
  }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    return inner_->Read(file);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  uint64_t refused() const { return refused_; }

 private:
  Storage* inner_;
  uint64_t refused_ = 0;
};

// A torn tail that cannot be truncated must not swallow later appends:
// Open() rolls to a fresh segment, so every epoch sealed after it is
// found where the manifest says (scrub clean) and by the next restart.
TEST(DurableStoreTest, UntruncatableTornTailRollsToAFreshSegment) {
  constexpr uint64_t kFirst = 5;
  constexpr uint64_t kTotal = 9;
  MemStorage inner;
  RefusingTruncateStorage storage(&inner);
  {
    DurableStore<SpaceSaving> store(&storage, Options());
    ASSERT_EQ(SealUpTo(store, kFirst), kFirst);
  }
  const std::vector<uint8_t> filler(40, 7);
  std::vector<uint8_t> torn = EncodeSegmentFrame(kStream, 0, kFirst,
                                                 filler.data(), filler.size());
  torn.resize(torn.size() / 2);
  ASSERT_TRUE(inner.Append("durable/seg/00000000", torn));

  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(&storage, Options());
    const OpenReport report = store.Open();
    EXPECT_EQ(report.torn_tails, 1u);
    EXPECT_EQ(storage.refused(), 1u);
    ASSERT_EQ(store.EpochCount(kStream), kFirst);
    for (uint64_t e = kFirst; e < kTotal; ++e) {
      const SpaceSaving summary = MakeEpochSummary(e);
      ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(e, summary)));
    }
    store.ScrubOnce();
    EXPECT_EQ(store.scrub_stats().corrupt_found, 0u);
    EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
    reference = AllRangePayloads(store, kTotal);
  }

  DurableStore<SpaceSaving> reopened(&storage, Options());
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.segments, 2u);
  EXPECT_EQ(report.torn_tails, 1u);  // Still there, and still harmless.
  EXPECT_EQ(report.epochs, kTotal);
  ASSERT_EQ(reopened.EpochCount(kStream), kTotal);
  EXPECT_EQ(AllRangePayloads(reopened, kTotal), reference);
  reopened.ScrubOnce();
  EXPECT_EQ(reopened.scrub_stats().corrupt_found, 0u);
}

// A backend whose first Read of one file fails (everything else
// forwards), as when the newest segment is briefly unreadable at Open().
class FailFirstReadStorage : public Storage {
 public:
  FailFirstReadStorage(Storage* inner, std::string file)
      : inner_(inner), file_(std::move(file)) {}
  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override {
    return inner_->Append(file, bytes);
  }
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override {
    return inner_->Rewrite(file, bytes);
  }
  bool Truncate(const std::string& file, uint64_t size) override {
    return inner_->Truncate(file, size);
  }
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    if (file == file_ && !failed_) {
      failed_ = true;
      return std::nullopt;
    }
    return inner_->Read(file);
  }
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override {
    return inner_->ReadRange(file, offset, length);
  }
  std::vector<std::string> List() const override { return inner_->List(); }
  bool failed() const { return failed_; }

 private:
  Storage* inner_;
  std::string file_;
  mutable bool failed_ = false;
};

// A newest segment that Open() could not read must not take appends:
// the store rolls to a fresh segment above it, so records land where
// the manifest says, and at the next restart the store's re-sealed
// epochs outrank the unread segment's older copies.
TEST(DurableStoreTest, UnreadableNewestSegmentRollsToAFreshSegment) {
  constexpr uint64_t kTotal = 16;
  DurableStoreOptions options = Options();
  options.segment_bytes = 1024;
  MemStorage inner;
  // Seals until there are two segments and a walk of the newest finds a
  // leaf in it, so that the store which cannot read that segment has to
  // re-seal an epoch, whatever size the records are.
  const auto newest_holds_a_leaf = [&] {
    const std::vector<std::string> files = inner.List();
    if (files.size() < 2) return false;
    const std::vector<SegmentRecordView> records =
        RecordsOf(*inner.Read(*std::max_element(files.begin(), files.end())));
    return std::any_of(records.begin(), records.end(),
                       [](const SegmentRecordView& view) {
                         return view.intact && view.level == 0;
                       });
  };
  uint64_t first = 0;
  {
    DurableStore<SpaceSaving> store(&inner, options);
    while (!newest_holds_a_leaf()) {
      ASSERT_LT(first, kTotal / 2);
      const SpaceSaving summary = MakeEpochSummary(first);
      ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(first, summary)));
      ++first;
    }
  }
  std::vector<std::string> segments = inner.List();
  ASSERT_GE(segments.size(), 2u);
  const std::string newest = *std::max_element(segments.begin(),
                                               segments.end());

  // The second store misses the newest segment, so it re-seals the
  // epochs stored there, with different contents, across a roll-over.
  FailFirstReadStorage storage(&inner, newest);
  std::vector<std::vector<uint8_t>> reference;
  {
    DurableStore<SpaceSaving> store(&storage, options);
    store.Open();
    ASSERT_TRUE(storage.failed());
    const uint64_t resumed = store.EpochCount(kStream);
    ASSERT_LT(resumed, first);
    for (uint64_t e = resumed; e < kTotal; ++e) {
      const SpaceSaving summary = MakeEpochSummary(100 + e);
      ASSERT_TRUE(store.Seal(kStream, summary, MetaFor(e, summary)));
    }
    EXPECT_GT(inner.List().size(), segments.size() + 1);
    reference = AllRangePayloads(store, kTotal);
    store.ScrubOnce();
    EXPECT_EQ(store.scrub_stats().corrupt_found, 0u);
    EXPECT_TRUE(store.QuarantinedLeaves(kStream).empty());
  }

  DurableStore<SpaceSaving> reopened(&inner, options);
  const OpenReport report = reopened.Open();
  EXPECT_EQ(report.corrupt_records, 0u);
  EXPECT_EQ(report.torn_tails, 0u);
  ASSERT_EQ(reopened.EpochCount(kStream), kTotal);
  EXPECT_EQ(AllRangePayloads(reopened, kTotal), reference);
  EXPECT_TRUE(reopened.QuarantinedLeaves(kStream).empty());
  reopened.ScrubOnce();
  EXPECT_EQ(reopened.scrub_stats().corrupt_found, 0u);
}

// Every field of `got` equals `want`.
void ExpectSameEps(const EpsilonReport& got, const EpsilonReport& want) {
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.degraded_epochs, want.degraded_epochs);
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.n_received, want.n_received);
  EXPECT_EQ(got.lost_mass, want.lost_mass);
  EXPECT_EQ(got.lost_mass_estimated, want.lost_mass_estimated);
  EXPECT_EQ(got.received_bound, want.received_bound);
  EXPECT_EQ(got.full_stream_bound, want.full_stream_bound);
}

// The typed planners over a store with a quarantined leaf: a top-k over
// a range, and over a window, that crosses the leaf answers with the
// top-k of the prefix before it and the exact bound
// AccumulateEpsilonPartial widens by every skipped epoch's mass; a
// window that starts on the leaf is refused.
TEST(DurableStoreTest, PlannersClampAroundAQuarantinedLeaf) {
  constexpr uint64_t kEpochs = 12;
  constexpr uint64_t kRotten = 9;
  constexpr size_t kTop = 5;
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, Options());
  ASSERT_EQ(SealUpTo(store, kEpochs), kEpochs);
  ASSERT_GT(FlipRecordByte(storage, 0, kRotten), 0u);
  store.ScrubOnce();
  ASSERT_EQ(store.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kRotten}));
  const std::vector<EpochMeta>& metas = store.Metas(kStream);

  for (const uint64_t lo : {uint64_t{2}, kEpochs - 6}) {
    SCOPED_TRACE("from epoch " + std::to_string(lo));
    const auto clamped =
        lo == 2 ? QueryTopK(store, kStream, lo, kEpochs - 1, kTop)
                : QueryWindowTopK(store, kStream, kEpochs - lo, kTop);
    const auto prefix = QueryTopK(store, kStream, lo, kRotten - 1, kTop);
    ASSERT_TRUE(clamped.has_value());
    ASSERT_TRUE(prefix.has_value());
    EXPECT_EQ(clamped->items, prefix->items);
    ExpectSameEps(clamped->eps,
                  AccumulateEpsilonPartial(metas, lo, kEpochs - 1,
                                           kRotten - 1, kEpsilon));
    ExpectSameEps(prefix->eps,
                  AccumulateEpsilon(metas, lo, kRotten - 1, kEpsilon));
    // The skipped epochs' whole mass widens the bound.
    uint64_t skipped = 0;
    for (uint64_t e = kRotten; e < kEpochs; ++e) skipped += metas[e].n;
    EXPECT_EQ(clamped->eps.lost_mass, skipped);
    EXPECT_GT(clamped->eps.full_stream_bound, prefix->eps.full_stream_bound);
  }
  EXPECT_FALSE(
      QueryWindowTopK(store, kStream, kEpochs - kRotten, kTop).has_value());
}

// A store written before counter arrays were packed holds CM01
// records: the CM02 header under the old magic, then every counter as a
// full u64. This build reads no CM01, so such a record is refused like
// a rotted one, never misread and never an abort: a CM01 node fails its
// page-in and is rebuilt from its children (and re-appended as CM02), a
// CM01 leaf fails its page-in and its epoch is quarantined.
std::vector<uint8_t> Cm01Payload(const CountMinSketch& sketch) {
  constexpr size_t kHeaderBytes = 32;
  const std::vector<uint8_t> packed = EncodeSummary(sketch);
  ByteReader reader(packed.data() + kHeaderBytes,
                    packed.size() - kHeaderBytes);
  std::vector<uint64_t> counters;
  EXPECT_TRUE(reader.GetCounterVector(
      static_cast<size_t>(sketch.depth()) * sketch.width(), &counters));
  ByteWriter old;
  old.PutU32(0x31304d43);  // "CM01"
  old.PutRaw(packed.data() + sizeof(uint32_t),
             kHeaderBytes - sizeof(uint32_t));
  old.PutU64Array(counters);
  return old.TakeBytes();
}

TEST(DurableStoreTest, OldCountMinRecordsAreRefusedNotMisread) {
  constexpr uint64_t kEpochs = 4;
  constexpr uint64_t kOldLeaf = 3;
  std::vector<CountMinSketch> sketches;
  std::vector<EpochMeta> metas;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    CountMinSketch sketch(4, 64, /*seed=*/5);
    Rng rng(40 + e);
    for (int i = 0; i < 300; ++i) sketch.Update(rng.UniformInt(100));
    EpochMeta meta;
    meta.epoch = e;
    meta.n = sketch.n();
    metas.push_back(meta);
    sketches.push_back(std::move(sketch));
  }
  const auto fold = [&sketches](uint64_t lo, uint64_t hi) {
    CountMinSketch merged = sketches[lo];
    for (uint64_t e = lo + 1; e <= hi; ++e) merged.Merge(sketches[e]);
    return EncodeSummary(merged);
  };
  MemStorage durable;
  {
    DurableStore<CountMinSketch> store(&durable, Options());
    for (uint64_t e = 0; e < kEpochs; ++e) {
      ASSERT_TRUE(store.Seal(kStream, sketches[e], metas[e]));
    }
    // CM01 copies of node (1, 0) and of leaf kOldLeaf, latest wins.
    CountMinSketch node = sketches[0];
    node.Merge(sketches[1]);
    DurableLog& log = store.log();
    ASSERT_TRUE(log.AppendFrame(
        kStream, 1, 0,
        EncodeNodeFrame(kStream, 1, 0, SummaryTag::kCountMin,
                        Cm01Payload(node))));
    ASSERT_TRUE(log.AppendFrame(
        kStream, 0, kOldLeaf,
        EncodeLeafFrame(kStream, kOldLeaf, SummaryTag::kCountMin,
                        metas[kOldLeaf], Cm01Payload(sketches[kOldLeaf]))));
  }

  DurableStore<CountMinSketch> store(&durable, Options());
  const OpenReport report = store.Open();
  // The scan reads a leaf record's tag and metadata, not its summary.
  EXPECT_EQ(report.epochs, kEpochs);
  EXPECT_EQ(report.corrupt_records, 0u);

  // The CM01 node is rebuilt from its CM02 leaves and re-appended.
  const uint64_t built = store.stats().nodes_built;
  const auto first_two = store.QueryRangePayload(kStream, 0, 1);
  ASSERT_TRUE(first_two.has_value());
  EXPECT_EQ(*first_two->payload, fold(0, 1));
  EXPECT_EQ(store.stats().nodes_built, built + 1);
  const std::optional<std::vector<uint8_t>> node_record =
      store.log().ReadRecord(kStream, 1, 0);
  ASSERT_TRUE(node_record.has_value());
  const std::optional<std::span<const uint8_t>> node_summary = ViewNodeRecord(
      node_record->data(), node_record->size(), SummaryTag::kCountMin);
  ASSERT_TRUE(node_summary.has_value());
  EXPECT_EQ(std::vector<uint8_t>(node_summary->begin(), node_summary->end()),
            fold(0, 1));

  // The CM01 leaf is refused and its epoch quarantined; a range over it
  // answers the prefix before it, its mass folded into the bound.
  EXPECT_FALSE(store.QueryRangePayload(kStream, kOldLeaf, kOldLeaf));
  EXPECT_EQ(store.QuarantinedLeaves(kStream),
            std::vector<uint64_t>({kOldLeaf}));
  const auto all = store.QueryRangePayload(kStream, 0, kEpochs - 1);
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->partial);
  EXPECT_EQ(*all->payload, fold(0, kOldLeaf - 1));
  EXPECT_EQ(all->eps.lost_mass, metas[kOldLeaf].n);
}

}  // namespace
}  // namespace mergeable
