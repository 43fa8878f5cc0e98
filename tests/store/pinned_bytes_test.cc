// Byte pins for the sealed envelope: every FrameRegistry() corpus frame
// at a fixed seed, and one leaf and one node SEG1 record as the durable
// store writes them, each pinned by its size and an FNV-1a digest of
// its bytes. A change to any frame layout, body encoding, record
// payload or the checksum moves a pin, so a refactor of the codec that
// keeps these passing has kept every byte on the wire and on disk.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/segment.h"
#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// FNV-1a over the bytes: independent of the library's own checksum, so
// a change there cannot move the pin and its reference together.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Pin {
  size_t size;
  uint64_t digest;
};

void ExpectPinned(const std::vector<uint8_t>& bytes, const Pin& pin) {
  EXPECT_EQ(bytes.size(), pin.size);
  EXPECT_EQ(Fnv1a(bytes), pin.digest)
      << "digest 0x" << std::hex << Fnv1a(bytes) << std::dec << " over "
      << bytes.size() << " bytes";
}

TEST(PinnedBytesTest, EveryRegistryCorpusFrameAtSeedSeven) {
  const std::map<std::string, std::vector<Pin>> pins = {
      {"TaggedPayload",
       {{20, 0xf77d27d516c6b479ULL},
        {68, 0x190f1eb3353b9267ULL},
        {220, 0x539c900b65ccc144ULL}}},
      {"ControlFrame",
       {{44, 0x53b606462a5fe402ULL},
        {44, 0xd3002a9b48f50b74ULL},
        {44, 0xe04dceec628013d2ULL},
        {44, 0xef68aea4814259d0ULL}}},
      {"QueryFrame",
       {{56, 0x8a3eb0034099d462ULL},
        {56, 0x8f530316e6b61b6aULL},
        {56, 0xe81dfdb249a5430fULL},
        {56, 0x1a5b5f799eaa8935ULL},
        {56, 0x2377d482c8eb7d8bULL}}},
      {"AnswerFrame",
       {{128, 0x6e8e9b8959ba564eULL},
        {212, 0x7eaab5649f742237ULL},
        {212, 0xbb17904e4e7652fULL}}},
      {"BatchFrame",
       {{20, 0x119ff0132b5ea5c3ULL},
        {194, 0x795380563cdcf000ULL},
        {1587, 0xf51e00ba720907caULL}}},
      {"BatchVerdictFrame",
       {{32, 0x732b9fb7fa09f72ULL},
        {32, 0xa5619e83291c340ULL},
        {52, 0x3e1700a6ffe66db9ULL}}},
      {"TopologyFrame",
       {{36, 0x8c6177c7829e81dcULL},
        {148, 0xa5cd74ee7a32378bULL},
        {148, 0xaf5d41c8fb75d652ULL}}},
  };
  ASSERT_EQ(FrameRegistry().size(), pins.size());
  for (const FrameCodecInfo& info : FrameRegistry()) {
    SCOPED_TRACE(info.name);
    const std::vector<std::vector<uint8_t>> corpus = info.corpus(7);
    const std::vector<Pin>& expected = pins.at(info.name);
    ASSERT_EQ(corpus.size(), expected.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("corpus frame " + std::to_string(i));
      ExpectPinned(corpus[i], expected[i]);
    }
  }
}

// The first segment of a store that sealed two SpaceSaving epochs holds
// leaf 0, leaf 1 and node (1, 0), in that order; leaf 1 and the node
// are pinned.
TEST(PinnedBytesTest, StoreLeafAndNodeRecords) {
  constexpr uint64_t kStream = 1;
  DurableStoreOptions options;
  options.store.epsilon = 0.1;
  MemStorage storage;
  {
    DurableStore<SpaceSaving> store(&storage, options);
    for (uint64_t epoch = 0; epoch < 2; ++epoch) {
      SpaceSaving summary = SpaceSaving::ForEpsilon(0.1);
      Rng rng(700 + epoch);
      for (int i = 0; i < 80; ++i) summary.Update(rng.UniformInt(30));
      EpochMeta meta;
      meta.epoch = epoch;
      meta.n = summary.n();
      meta.shards_total = 2;
      meta.shards_received = 2;
      ASSERT_TRUE(store.Seal(kStream, summary, meta));
    }
  }
  ASSERT_EQ(storage.List(), std::vector<std::string>({"durable/seg/00000000"}));
  const std::vector<uint8_t> segment = *storage.Read("durable/seg/00000000");
  std::vector<std::vector<uint8_t>> records;
  std::vector<std::pair<uint32_t, uint64_t>> keys;
  const SegmentScanTotals totals = WalkSegment(
      segment.data(), segment.size(), [&](const SegmentRecordView& view) {
        EXPECT_TRUE(view.intact);
        EXPECT_EQ(view.stream, kStream);
        keys.emplace_back(view.level, view.index);
        records.emplace_back(segment.begin() + view.offset,
                             segment.begin() + view.offset + view.length);
      });
  EXPECT_FALSE(totals.torn_tail);
  ASSERT_EQ(keys, (std::vector<std::pair<uint32_t, uint64_t>>{
                      {0, 0}, {0, 1}, {1, 0}}));
  ExpectPinned(records[1], {356, 0x5a38946665777558ULL});
  ExpectPinned(records[2], {192, 0xbdba4738d1c6e95cULL});
}

}  // namespace
}  // namespace mergeable
