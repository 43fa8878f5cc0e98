// Storage semantics: append/rewrite/truncate/read/list, plus every
// crash mode of the CrashPoint schedule — the foundation the recovery
// tests stand on, so the failure injection itself must be exact. Every
// semantic test runs over both backends (MemStorage model, FileStorage
// on real files); the two must expose an identical crash surface.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "storage_backends.h"

namespace mergeable {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> list) {
  return std::vector<uint8_t>(list);
}

class StorageBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  StorageBackendTest() : factory_(GetParam()) {}
  BackendFactory factory_;
};

TEST_P(StorageBackendTest, AppendAccumulatesAndReadReturnsAll) {
  auto storage = factory_.Make();
  EXPECT_TRUE(storage->Append("log", Bytes({1, 2})));
  EXPECT_TRUE(storage->Append("log", Bytes({3})));
  const auto contents = storage->Read("log");
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(*contents, Bytes({1, 2, 3}));
  EXPECT_EQ(storage->stats().appends, 2u);
  EXPECT_EQ(storage->stats().bytes_appended, 3u);
}

TEST_P(StorageBackendTest, RewriteReplacesContents) {
  auto storage = factory_.Make();
  EXPECT_TRUE(storage->Rewrite("snap", Bytes({1, 2, 3})));
  EXPECT_TRUE(storage->Rewrite("snap", Bytes({9})));
  const auto contents = storage->Read("snap");
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(*contents, Bytes({9}));
}

TEST_P(StorageBackendTest, TruncateDropsTail) {
  auto storage = factory_.Make();
  EXPECT_TRUE(storage->Append("log", Bytes({1, 2, 3, 4})));
  EXPECT_TRUE(storage->Truncate("log", 2));
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
  // Truncating past the end is a no-op, not an extension.
  EXPECT_TRUE(storage->Truncate("log", 100));
  EXPECT_EQ(storage->Read("log")->size(), 2u);
}

TEST_P(StorageBackendTest, MissingFileReadsAsNullopt) {
  auto storage = factory_.Make();
  EXPECT_FALSE(storage->Read("nope").has_value());
  EXPECT_TRUE(storage->List().empty());
}

TEST_P(StorageBackendTest, ReadRangeSlicesAndRefusesShortFiles) {
  auto storage = factory_.Make();
  ASSERT_TRUE(storage->Append("seg/0", Bytes({1, 2, 3, 4, 5})));
  EXPECT_EQ(*storage->ReadRange("seg/0", 1, 3), Bytes({2, 3, 4}));
  EXPECT_EQ(*storage->ReadRange("seg/0", 0, 5), Bytes({1, 2, 3, 4, 5}));
  EXPECT_EQ(*storage->ReadRange("seg/0", 5, 0), Bytes({}));
  // A range the file does not fully hold is refused, never padded.
  EXPECT_FALSE(storage->ReadRange("seg/0", 3, 3).has_value());
  EXPECT_FALSE(storage->ReadRange("seg/0", 6, 0).has_value());
  EXPECT_FALSE(storage->ReadRange("missing", 0, 0).has_value());
  EXPECT_FALSE(storage->ReadRange("../escape", 0, 1).has_value());
}

// Range reads see every completed write: an append grows what they can
// reach, and a rewrite (a new file renamed into place) replaces what
// they see — however often the same file was range-read before.
TEST_P(StorageBackendTest, ReadRangeFollowsAppendsAndRewrites) {
  auto storage = factory_.Make();
  ASSERT_TRUE(storage->Append("seg/0", Bytes({1, 2})));
  EXPECT_EQ(*storage->ReadRange("seg/0", 0, 2), Bytes({1, 2}));
  EXPECT_FALSE(storage->ReadRange("seg/0", 2, 1).has_value());
  ASSERT_TRUE(storage->Append("seg/0", Bytes({3})));
  EXPECT_EQ(*storage->ReadRange("seg/0", 2, 1), Bytes({3}));
  ASSERT_TRUE(storage->Rewrite("seg/0", Bytes({9, 8})));
  EXPECT_EQ(*storage->ReadRange("seg/0", 0, 2), Bytes({9, 8}));
  EXPECT_FALSE(storage->ReadRange("seg/0", 2, 1).has_value());
  // Many files at once: more than any descriptor cache holds.
  for (uint8_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(storage->Append("many/" + std::to_string(i), Bytes({i})));
  }
  for (int round = 0; round < 2; ++round) {
    for (uint8_t i = 0; i < 100; ++i) {
      EXPECT_EQ(*storage->ReadRange("many/" + std::to_string(i), 0, 1),
                Bytes({i}));
    }
  }
}

// A backend without its own range read gets the default: read the
// whole file, then slice it with the same contract.
TEST(StorageTest, DefaultReadRangeSlicesTheWholeFileRead) {
  class WholeFileOnly : public Storage {
   public:
    bool Append(const std::string& file,
                const std::vector<uint8_t>& bytes) override {
      return inner_.Append(file, bytes);
    }
    bool Rewrite(const std::string& file,
                 const std::vector<uint8_t>& bytes) override {
      return inner_.Rewrite(file, bytes);
    }
    bool Truncate(const std::string& file, uint64_t size) override {
      return inner_.Truncate(file, size);
    }
    std::optional<std::vector<uint8_t>> Read(
        const std::string& file) const override {
      return inner_.Read(file);
    }
    std::vector<std::string> List() const override { return inner_.List(); }

   private:
    MemStorage inner_;
  };
  WholeFileOnly storage;
  ASSERT_TRUE(storage.Append("seg/0", Bytes({1, 2, 3, 4, 5})));
  EXPECT_EQ(*storage.ReadRange("seg/0", 2, 2), Bytes({3, 4}));
  EXPECT_EQ(*storage.ReadRange("seg/0", 5, 0), Bytes({}));
  EXPECT_FALSE(storage.ReadRange("seg/0", 4, 2).has_value());
  EXPECT_FALSE(storage.ReadRange("missing", 0, 0).has_value());
}

TEST_P(StorageBackendTest, ListIsSortedAndHandlesSubdirectories) {
  auto storage = factory_.Make();
  EXPECT_TRUE(storage->Append("b", Bytes({1})));
  EXPECT_TRUE(storage->Append("a", Bytes({1})));
  EXPECT_TRUE(storage->Append("dir/c", Bytes({1})));
  const auto names = storage->List();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "dir/c");
  EXPECT_EQ(*storage->Read("dir/c"), Bytes({1}));
}

TEST_P(StorageBackendTest, CrashBeforeWritePersistsNothing) {
  CrashPoint point;
  point.mode = CrashMode::kBeforeWrite;
  point.write_index = 1;
  auto storage = factory_.Make(point);
  EXPECT_TRUE(storage->Append("log", Bytes({1, 2})));
  EXPECT_FALSE(storage->Append("log", Bytes({3, 4})));
  EXPECT_TRUE(storage->crashed());
  // Only the first write is durable; later writes all fail.
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
  EXPECT_FALSE(storage->Append("log", Bytes({5})));
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
}

TEST_P(StorageBackendTest, CrashTornWritePersistsStrictPrefix) {
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 0;
  point.mutation_seed = 7;
  auto storage = factory_.Make(point);
  EXPECT_FALSE(storage->Append("log", Bytes({1, 2, 3, 4, 5, 6, 7, 8})));
  EXPECT_TRUE(storage->crashed());
  const auto contents = storage->Read("log");
  // A strict prefix (possibly empty) reached the medium.
  if (contents.has_value()) {
    EXPECT_LT(contents->size(), 8u);
  }
}

TEST_P(StorageBackendTest, CrashCorruptWritePersistsFlippedBits) {
  CrashPoint point;
  point.mode = CrashMode::kCorruptWrite;
  point.write_index = 0;
  point.mutation_seed = 11;
  auto storage = factory_.Make(point);
  const auto original = Bytes({1, 2, 3, 4});
  EXPECT_FALSE(storage->Append("log", original));
  EXPECT_TRUE(storage->crashed());
  const auto contents = storage->Read("log");
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->size(), original.size());
  EXPECT_NE(*contents, original);  // Exactly one bit differs.
}

TEST_P(StorageBackendTest, CrashAfterWritePersistsEverything) {
  CrashPoint point;
  point.mode = CrashMode::kAfterWrite;
  point.write_index = 0;
  auto storage = factory_.Make(point);
  // The writer sees failure, but the bytes are durable — the classic
  // lost-acknowledgement case dedup must handle.
  EXPECT_FALSE(storage->Append("log", Bytes({1, 2})));
  EXPECT_TRUE(storage->crashed());
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
}

TEST_P(StorageBackendTest, TornRewriteKeepsOldContents) {
  // Rewrite is atomic-rename on both backends: a crash while writing
  // the replacement leaves the OLD file fully intact — never a torn
  // mixture of the two.
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 1;
  point.mutation_seed = 3;
  auto storage = factory_.Make(point);
  EXPECT_TRUE(storage->Rewrite("snap", Bytes({1, 2, 3, 4})));
  EXPECT_FALSE(storage->Rewrite("snap", Bytes({5, 6, 7, 8})));
  EXPECT_TRUE(storage->crashed());
  EXPECT_EQ(*storage->Read("snap"), Bytes({1, 2, 3, 4}));
  // After restart the old contents are still what is served.
  storage->Restart();
  EXPECT_EQ(*storage->Read("snap"), Bytes({1, 2, 3, 4}));
}

TEST_P(StorageBackendTest, CorruptRewriteLandsNewContentsRotted) {
  // A corrupt rewrite models media rot just after the rename: the new
  // contents are in place, one bit flipped.
  CrashPoint point;
  point.mode = CrashMode::kCorruptWrite;
  point.write_index = 1;
  point.mutation_seed = 5;
  auto storage = factory_.Make(point);
  EXPECT_TRUE(storage->Rewrite("snap", Bytes({1, 2, 3, 4})));
  const auto next = Bytes({5, 6, 7, 8});
  EXPECT_FALSE(storage->Rewrite("snap", next));
  const auto contents = storage->Read("snap");
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->size(), next.size());
  EXPECT_NE(*contents, next);
}

TEST_P(StorageBackendTest, RestartClearsCrashAndKeepsDurableBytes) {
  CrashPoint point;
  point.mode = CrashMode::kAfterWrite;
  point.write_index = 0;
  auto storage = factory_.Make(point);
  EXPECT_FALSE(storage->Append("log", Bytes({1})));
  storage->Restart();
  EXPECT_FALSE(storage->crashed());
  EXPECT_EQ(*storage->Read("log"), Bytes({1}));
  // The consumed schedule does not fire again.
  EXPECT_TRUE(storage->Append("log", Bytes({2})));
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
}

TEST_P(StorageBackendTest, WriteIndicesCountAppendsRewritesTruncates) {
  // The crash matrix enumerates boundaries from writes_attempted();
  // both backends must count the same operations.
  auto storage = factory_.Make();
  EXPECT_EQ(storage->writes_attempted(), 0u);
  storage->Append("log", Bytes({1}));
  storage->Rewrite("snap", Bytes({2}));
  storage->Truncate("log", 0);
  EXPECT_EQ(storage->writes_attempted(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageBackendTest,
                         ::testing::Values(BackendKind::kMem,
                                           BackendKind::kFile),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(MemStorageTest, CrashMatrixCoversEveryWriteAndMode) {
  const auto matrix = CrashMatrix(3, /*seed=*/1);
  ASSERT_EQ(matrix.size(), 12u);  // 3 writes x 4 fatal modes.
  for (const CrashPoint& point : matrix) {
    EXPECT_NE(point.mode, CrashMode::kNone);
    EXPECT_LT(point.write_index, 3u);
  }
}

TEST(MemStorageTest, TransientFailuresConsumeNoWriteIndex) {
  MemStorage storage;
  storage.FailNextWrites(2);
  EXPECT_FALSE(storage.Append("log", Bytes({1})));
  EXPECT_FALSE(storage.Append("log", Bytes({2})));
  EXPECT_EQ(storage.writes_attempted(), 0u);
  EXPECT_EQ(storage.stats().transient_failures, 2u);
  EXPECT_FALSE(storage.Read("log").has_value());
  // The window exhausted; the retry lands and gets index 0.
  EXPECT_TRUE(storage.Append("log", Bytes({3})));
  EXPECT_EQ(storage.writes_attempted(), 1u);
  EXPECT_EQ(*storage.Read("log"), Bytes({3}));
}

TEST(MemStorageTest, MovedRewriteKeepsTheCrashModel) {
  CrashPoint point;
  point.mode = CrashMode::kCorruptWrite;
  point.write_index = 1;
  point.mutation_seed = 5;
  MemStorage storage(point);
  EXPECT_TRUE(storage.Rewrite("snap", Bytes({1, 2, 3})));
  EXPECT_EQ(storage.stats().bytes_rewritten, 3u);
  // The owning overload lands the same durable bytes as the copying
  // one: here the scheduled corrupt write flips one bit of them.
  const auto next = Bytes({5, 6, 7, 8});
  EXPECT_FALSE(storage.Rewrite("snap", std::vector<uint8_t>(next)));
  EXPECT_TRUE(storage.crashed());
  const auto contents = storage.Read("snap");
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->size(), next.size());
  EXPECT_NE(*contents, next);
  EXPECT_EQ(storage.writes_attempted(), 2u);
}

TEST(FileStorageTest, TruncateReportsWhatItCouldNotDo) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  // A file that was never written has nothing past any size.
  EXPECT_TRUE(storage->Truncate("missing", 0));
  // A name the backend cannot open for writing (here a directory) keeps
  // whatever it holds; the caller must hear that.
  ASSERT_TRUE(storage->Append("dir/log", Bytes({1, 2, 3})));
  EXPECT_FALSE(storage->Truncate("dir", 0));
  EXPECT_EQ(storage->stats().transient_failures, 1u);
  EXPECT_FALSE(storage->crashed());
  EXPECT_EQ(*storage->Read("dir/log"), Bytes({1, 2, 3}));
}

TEST(FileStorageTest, PersistsAcrossInstances) {
  BackendFactory factory(BackendKind::kFile);
  auto a = factory.Make();
  auto* file_a = static_cast<FileStorage*>(a.get());
  EXPECT_TRUE(a->Append("wal/log", Bytes({1, 2, 3})));
  EXPECT_TRUE(a->Rewrite("snap/0", Bytes({4, 5})));
  // A second instance over the same directory sees the same bytes —
  // the property MemStorage cannot provide.
  FileStorage b(file_a->root());
  EXPECT_EQ(*b.Read("wal/log"), Bytes({1, 2, 3}));
  EXPECT_EQ(*b.Read("snap/0"), Bytes({4, 5}));
  const auto names = b.List();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "snap/0");
  EXPECT_EQ(names[1], "wal/log");
}

TEST(FileStorageTest, RejectsPathEscapes) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  EXPECT_FALSE(storage->Append("../escape", Bytes({1})));
  EXPECT_FALSE(storage->Append("/absolute", Bytes({1})));
  EXPECT_FALSE(storage->Append("a/../b", Bytes({1})));
  EXPECT_FALSE(storage->Append("", Bytes({1})));
  EXPECT_FALSE(storage->Read("../escape").has_value());
  EXPECT_TRUE(storage->List().empty());
}

TEST(FileStorageTest, FaultFdInjectsCleanTransientFailures) {
  FaultFd faults;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make({}, &faults);
  EXPECT_TRUE(storage->Append("log", Bytes({1, 2})));

  faults.FailNextWrites(FaultFd::Kind::kENOSPC, 1);
  EXPECT_FALSE(storage->Append("log", Bytes({3, 4})));
  faults.FailNextWrites(FaultFd::Kind::kEIO, 1);
  EXPECT_FALSE(storage->Append("log", Bytes({3, 4})));
  // Neither failed call consumed a write index or left bytes behind.
  EXPECT_EQ(storage->writes_attempted(), 1u);
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
  EXPECT_EQ(storage->stats().transient_failures, 2u);
  EXPECT_EQ(faults.faults_injected(), 2u);

  // The retry after the window closes appends at a clean offset.
  EXPECT_TRUE(storage->Append("log", Bytes({3, 4})));
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2, 3, 4}));
}

TEST(FileStorageTest, ShortWriteRollsBackToPreAppendLength) {
  FaultFd faults;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make({}, &faults);
  EXPECT_TRUE(storage->Append("log", Bytes({1, 2})));
  faults.FailNextWrites(FaultFd::Kind::kShortWrite, 1);
  EXPECT_FALSE(storage->Append("log", Bytes({3, 4, 5, 6})));
  // The half-written bytes were truncated away: the log is not
  // poisoned and the retry produces the same contents as no fault.
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2}));
  EXPECT_TRUE(storage->Append("log", Bytes({3, 4, 5, 6})));
  EXPECT_EQ(*storage->Read("log"), Bytes({1, 2, 3, 4, 5, 6}));
}

TEST(FileStorageTest, StickyEnospcFailsEverythingUntilCleared) {
  FaultFd faults;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make({}, &faults);
  faults.SetSticky(FaultFd::Kind::kENOSPC);
  EXPECT_FALSE(storage->Append("log", Bytes({1})));
  EXPECT_FALSE(storage->Rewrite("snap", Bytes({2})));
  EXPECT_FALSE(storage->Append("log", Bytes({3})));
  faults.Clear();
  EXPECT_TRUE(storage->Append("log", Bytes({4})));
  EXPECT_EQ(*storage->Read("log"), Bytes({4}));
}

TEST(FileStorageTest, RestartSweepsStaleTempFiles) {
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make();
  auto* file = static_cast<FileStorage*>(storage.get());
  // A torn rewrite dies mid-temp-write; reopening the directory (a new
  // instance, like a process restart) must sweep the stale temp.
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 0;
  point.mutation_seed = 9;
  FileStorage crasher(file->root(), point);
  EXPECT_FALSE(crasher.Rewrite("snap", Bytes({1, 2, 3, 4})));
  EXPECT_TRUE(crasher.crashed());
  FileStorage reopened(file->root());
  EXPECT_TRUE(reopened.List().empty());
  EXPECT_FALSE(reopened.Read("snap").has_value());
  // And the swept temp does not resurrect as the destination later.
  EXPECT_TRUE(reopened.Rewrite("snap", Bytes({9})));
  EXPECT_EQ(*reopened.Read("snap"), Bytes({9}));
}

TEST(FileStorageTest, TornAppendIsSectorAligned) {
  // Large torn appends persist a sector-multiple prefix — the shape a
  // real power cut leaves behind.
  CrashPoint point;
  point.mode = CrashMode::kTornWrite;
  point.write_index = 0;
  point.mutation_seed = 1234;
  BackendFactory factory(BackendKind::kFile);
  auto storage = factory.Make(point);
  std::vector<uint8_t> big(4096, 0xAB);
  EXPECT_FALSE(storage->Append("log", big));
  const auto contents = storage->Read("log");
  const size_t persisted = contents.has_value() ? contents->size() : 0;
  EXPECT_LT(persisted, big.size());
  EXPECT_EQ(persisted % 512, 0u);
}

}  // namespace
}  // namespace mergeable
