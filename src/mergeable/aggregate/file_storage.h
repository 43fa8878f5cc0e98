// A POSIX file-system implementation of the Storage interface.
//
// Logical file names ("store/s1/n0.3") map to real paths under a root
// directory. The durability discipline is the classic one:
//
//   Append    open(O_APPEND) + write + fsync. A failed or short write
//             is truncated back to the pre-append length before the
//             call returns false, so the log is never left poisoned by
//             a half-record and a retry appends at the same offset.
//   Rewrite   write the full contents to "<name>.tmp", fsync it, then
//             rename(2) over the destination and fsync the parent
//             directory. Readers see the old bytes or the new bytes,
//             never a mix; a crash mid-rewrite leaves the old file
//             untouched and only a stale temp file behind, which
//             startup sweeps away.
//   Create    every directory created on the way to a file is fsync'd
//             so the file's existence itself is durable.
//
// FileStorage injects no faults; CrashingStorage (storage.h) wraps it
// for the crash-matrix and disk-full tests.

#ifndef MERGEABLE_AGGREGATE_FILE_STORAGE_H_
#define MERGEABLE_AGGREGATE_FILE_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mergeable/aggregate/storage.h"

namespace mergeable {

class FileStorage : public Storage {
 public:
  // Operates under `root` (created, with fsync'd ancestors, if absent).
  // Leftover "*.tmp" files under root are removed, the same sweep a
  // real process does on startup.
  explicit FileStorage(std::string root);

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override;
  bool Truncate(const std::string& file, uint64_t size) override;
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override;
  // pread(2) on a cached read-only descriptor, without taking mu_:
  // Append holds mu_ across write and fsync, and a reader of bytes that
  // are already durable must not queue behind another writer's fsync.
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override;
  std::vector<std::string> List() const override;

  const std::string& root() const { return root_; }

 private:
  // Maps a logical name to a real path, rejecting traversal ("..",
  // absolute names, empty segments). Returns false on a hostile name.
  bool ResolvePath(const std::string& file, std::string* path) const;

  // mkdir -p for the file's parent, fsyncing every directory created.
  bool EnsureParentDirs(const std::string& path);

  // Removes stale "*.tmp" files under root (crash-interrupted rewrites).
  void SweepTempFiles();

  // A read-only descriptor shared by concurrent range reads; closed
  // when the cache and the last reader have let go of it.
  struct ReadFd {
    explicit ReadFd(int fd) : fd(fd) {}
    ~ReadFd();
    ReadFd(const ReadFd&) = delete;
    ReadFd& operator=(const ReadFd&) = delete;
    const int fd;
  };
  // The cached descriptor for `path`, opened on a miss; nullptr when the
  // file cannot be opened.
  std::shared_ptr<ReadFd> ReadFdFor(const std::string& path) const;
  // Drops the cached descriptor of a path whose inode was replaced.
  void ForgetReadFd(const std::string& path);

  mutable std::mutex mu_;
  std::string root_;

  // ReadRange's descriptors by path, at most kMaxReadFds of them; a
  // full cache drops the lexicographically first path, which for
  // zero-padded log segment names is the oldest segment. read_mu_ is
  // held across a miss's open(2), so no entry can outlive the Rewrite
  // that renamed a new inode over its path; it is never held across a
  // read or write, and is taken inside mu_ (by Rewrite), never the
  // other way round.
  static constexpr size_t kMaxReadFds = 128;
  mutable std::mutex read_mu_;
  mutable std::map<std::string, std::shared_ptr<ReadFd>> read_fds_;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_FILE_STORAGE_H_
