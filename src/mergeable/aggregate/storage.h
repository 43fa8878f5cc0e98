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
// Both backends are plain: they store what they are given and report
// real failures. Crash-recovery tests wrap either one in
// CrashingStorage (below), the one fault injector, so both backends
// see the same crashes, torn prefixes, flipped bits and transient
// failures on the same bytes by construction.

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

// Write-traffic counters, kept by CrashingStorage for the tests.
struct StorageStats {
  uint64_t appends = 0;
  uint64_t rewrites = 0;
  uint64_t truncates = 0;
  uint64_t bytes_appended = 0;
  uint64_t bytes_rewritten = 0;
  // Writes that failed without killing the process: injected transient
  // faults and failures the backend reported. Retry loops make these
  // recoverable.
  uint64_t transient_failures = 0;
};

// The in-memory backend. It never fails on its own; wrap it in a
// CrashingStorage to inject faults.
class MemStorage : public Storage {
 public:
  MemStorage() = default;

  // Copying snapshots the files (benchmarks fork sealed storage into
  // fresh cold copies); the mutex itself is not copied.
  MemStorage(const MemStorage& other) {
    std::lock_guard<std::mutex> lock(other.mu_);
    files_ = other.files_;
  }
  MemStorage& operator=(const MemStorage&) = delete;

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override;
  bool Truncate(const std::string& file, uint64_t size) override;
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override;
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override;
  std::vector<std::string> List() const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<uint8_t>> files_;
};

// Fault injection around any backend: the only code that reads a
// CrashPoint, so every backend tears, flips and fails the same bytes.
//
// Every append, rewrite and truncate takes the next write index; when
// the index is the CrashPoint's, the write dies in the point's mode:
//
//   before-write   nothing is forwarded;
//   torn-write     an append forwards a strict prefix (sector-aligned
//                  above 512 B, the shape a power cut leaves); a rewrite
//                  forwards nothing, because it dies writing its temp
//                  file and the rename never happens;
//   corrupt-write  the bytes are forwarded with one bit flipped (for a
//                  rewrite, media rot just after the rename);
//   after-write    everything is forwarded.
//
// A truncate is all-or-nothing, so every mode but before-write forwards
// it whole. In every mode the process then dies: the call returns false
// and every later write fails until Restart(). Transient faults
// (FailNextWrites, set_disk_full) fail an append or a rewrite before it
// reaches the backend, so the file is unchanged and no index is used;
// a retry loop cannot shift the crash schedule.
//
// One mutex covers each decision and the write it forwards, so write i
// is the i-th write to reach the backend. Reads pass straight through.
class CrashingStorage : public Storage {
 public:
  // Wraps `inner` (unowned). `crash` fires at most once; Restart()
  // clears it.
  explicit CrashingStorage(Storage* inner, CrashPoint crash = {})
      : inner_(inner), crash_(crash) {}

  bool Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;
  bool Rewrite(const std::string& file,
               const std::vector<uint8_t>& bytes) override;
  bool Truncate(const std::string& file, uint64_t size) override;
  std::optional<std::vector<uint8_t>> Read(
      const std::string& file) const override {
    return inner_->Read(file);
  }
  std::optional<std::vector<uint8_t>> ReadRange(
      const std::string& file, uint64_t offset,
      uint64_t length) const override {
    return inner_->ReadRange(file, offset, length);
  }
  std::vector<std::string> List() const override { return inner_->List(); }

  // True once the crash point has fired: the process is "dead".
  bool crashed() const;

  // The process comes back up: writes work again over exactly the bytes
  // that were durable. The crash schedule and the FailNextWrites window
  // are cleared; a full disk stays full.
  void Restart();

  // Write indices used so far. A dry run reads this to enumerate every
  // crash boundary for CrashMatrix.
  uint64_t writes_attempted() const;

  StorageStats stats() const;

  // The next `count` appends and rewrites fail transiently.
  void FailNextWrites(uint64_t count);

  // While set, every append and rewrite fails transiently: the disk is
  // full. Truncates still work.
  void set_disk_full(bool full);

 private:
  enum class Op { kAppend, kRewrite, kTruncate };

  // Decides the fate of one write and forwards what survives of it.
  // `size` is the truncate length; `bytes` the append or rewrite data.
  bool Write(Op op, const std::string& file,
             const std::vector<uint8_t>& bytes, uint64_t size);

  Storage* const inner_;
  mutable std::mutex mu_;
  CrashPoint crash_;
  bool crashed_ = false;
  bool disk_full_ = false;
  uint64_t fail_next_ = 0;
  uint64_t writes_attempted_ = 0;
  StorageStats stats_;
};

}  // namespace mergeable

#endif  // MERGEABLE_AGGREGATE_STORAGE_H_
