// Durable storage abstraction for the aggregation pipeline.
//
// Everything durable is an append-only log of SEG1 records
// (store/segment.h) written through this interface: the coordinator's
// log of accepted reports, lost shards and checkpoints of the partially
// merged summary (coordinator.h), and the durable store's segment files
// (store/durable_store.h). Storage is deliberately tiny —
// named byte files with append, full rewrite, truncate and read — so a
// real backend (a local file system, a replicated log) can slot in
// without touching the recovery logic. FileStorage (file_storage.h) is
// the POSIX backend; MemStorage is the in-memory one.
//
// Both backends implement CrashableStorage: they model the failure
// modes that matter for crash recovery via a CrashPoint schedule
// (fault.h). The process can die immediately before a write (nothing
// persists), during it (a torn prefix persists), just after it
// (everything persists but the writer never learns), or the final
// write can persist bit-flipped. Rewrite is atomic-rename on both
// backends, so a crash during a rewrite leaves the OLD contents intact
// (the torn temp file is never renamed into place); only a corrupt
// crash leaves the new contents bit-flipped, modeling media rot after
// the rename. After a simulated crash every further write fails;
// Restart() models the process coming back up and finding exactly the
// bytes that were durable.

#ifndef MERGEABLE_AGGREGATE_STORAGE_H_
#define MERGEABLE_AGGREGATE_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mergeable/aggregate/fault.h"

namespace mergeable {

class Storage {
 public:
  virtual ~Storage() = default;

  // Appends `bytes` to the named file (created on first append). Returns
  // false when the write did not durably complete — the caller must
  // treat the record as lost (it may still be partially present; the
  // log reader truncates torn tails).
  virtual bool Append(const std::string& file,
                      const std::vector<uint8_t>& bytes) = 0;

  // Replaces the named file's contents. The replace is atomic (write a
  // temp file, then rename): readers see either the old contents or the
  // new ones, never a mix, and a crash mid-rewrite leaves the old file
  // untouched.
  virtual bool Rewrite(const std::string& file,
                       const std::vector<uint8_t>& bytes) = 0;

  // Discards every byte of `file` past `size` (recovery uses this to
  // drop a torn log tail). Returns false if the truncate did not
  // durably complete.
  virtual bool Truncate(const std::string& file, uint64_t size) = 0;

  // The file's durable contents; std::nullopt if it was never written.
  virtual std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const = 0;

  // Bytes [offset, offset + length) of the file; std::nullopt if the
  // file is missing or shorter than offset + length. The default reads
  // the whole file and slices it; backends override it with a real
  // range read.
  virtual std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset, uint64_t length) const;

  // Every file name present, sorted (deterministic recovery scans).
  virtual std::vector<std::string> List() const = 0;
};

// Write-traffic counters.
struct StorageStats {
  uint64_t appends = 0;
  uint64_t rewrites = 0;
  uint64_t truncates = 0;
  uint64_t bytes_appended = 0;
  uint64_t bytes_rewritten = 0;
  // Writes that failed transiently (injected EIO/ENOSPC/short write)
  // without killing the process. Retry loops make these recoverable.
  uint64_t transient_failures = 0;
};

// A Storage whose failure surface the crash-matrix tests can drive:
// a scheduled crash point, restart semantics, and a durable-write
// counter a dry run reads to enumerate every crash boundary. Both
// MemStorage and FileStorage implement this, so every recovery suite
// runs unchanged against either backend.
class CrashableStorage : public Storage {
 public:
  // True once the crash point has fired: the process is "dead" and every
  // write fails until Restart().
  virtual bool crashed() const = 0;

  // Simulates the process coming back up: writes work again, the durable
  // bytes are exactly what survived the crash, and the consumed crash
  // schedule is cleared.
  virtual void Restart() = 0;

  // Durable write operations attempted so far. A dry run reads this to
  // enumerate every crash boundary for the crash-matrix test. Transient
  // injected failures and post-crash writes do not consume indices, so
  // a retry loop cannot shift the crash schedule.
  virtual uint64_t writes_attempted() const = 0;

  virtual StorageStats stats() const = 0;
};

class MemStorage : public CrashableStorage {
 public:
  // A storage that never fails.
  MemStorage() = default;
  // A storage that crashes at `crash` (see fault.h). The schedule fires
  // once; Restart() clears it along with the crashed state.
  explicit MemStorage(CrashPoint crash) : crash_(crash) {}

  // Copying snapshots the full state (benchmarks fork sealed storage
  // into fresh cold copies); the mutex itself is not copied.
  MemStorage(const MemStorage& other) {
    std::lock_guard<std::mutex> lock(other.mu_);
    files_ = other.files_;
    crash_ = other.crash_;
    crashed_ = other.crashed_;
    writes_attempted_ = other.writes_attempted_;
    transient_faults_pending_ = other.transient_faults_pending_;
    stats_ = other.stats_;
  }
  MemStorage& operator=(const MemStorage&) = delete;

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override;
  // Same contract, taking ownership of `bytes` instead of copying them.
  bool Rewrite(const std::string& file, std::vector<uint8_t>&& bytes);
  bool Truncate(const std::string& file, uint64_t size) override;
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override;
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override;
  std::vector<std::string> List() const override;

  bool crashed() const override;
  void Restart() override;
  uint64_t writes_attempted() const override;
  StorageStats stats() const override;

  // The next `count` Append/Rewrite calls fail cleanly — nothing reaches
  // the medium, the process stays alive, and no write index is consumed —
  // modeling a transient EIO/ENOSPC window a retry loop can ride out.
  void FailNextWrites(uint64_t count);

 private:
  // Returns false (and marks the process crashed) when the scheduled
  // crash fires on this write; whatever the crash mode left durable
  // (nothing, a torn prefix, a bit-flipped copy, or all of it) is
  // applied to the named file first.
  bool CommitWrite(const std::string& file, std::vector<uint8_t> bytes,
                   bool append);

  mutable std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
  CrashPoint crash_;
  bool crashed_ = false;
  uint64_t writes_attempted_ = 0;
  uint64_t transient_faults_pending_ = 0;
  StorageStats stats_;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_STORAGE_H_
