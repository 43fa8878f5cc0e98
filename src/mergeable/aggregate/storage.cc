#include "mergeable/aggregate/storage.h"

#include <utility>

#include "mergeable/util/random.h"

namespace mergeable {

std::optional<std::vector<uint8_t>> Storage::ReadRange(
    const std::string& file, uint64_t offset, uint64_t length) const {
  std::optional<std::vector<uint8_t>> bytes = Read(file);
  if (!bytes.has_value() || offset > bytes->size() ||
      length > bytes->size() - offset) {
    return std::nullopt;
  }
  bytes->resize(offset + length);
  bytes->erase(bytes->begin(), bytes->begin() + offset);
  return bytes;
}

bool MemStorage::CommitWrite(const std::string& file,
                             std::vector<uint8_t> bytes, bool append) {
  if (crashed_) return false;
  if (transient_faults_pending_ > 0) {
    // A transient fault consumes no write index: the syscall failed
    // before any byte reached the medium, so a retry replays the exact
    // same durable write sequence the crash matrix enumerated.
    --transient_faults_pending_;
    ++stats_.transient_failures;
    return false;
  }
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && crash_.mode == CrashMode::kBeforeWrite) {
    crashed_ = true;
    return false;
  }
  if (fires && crash_.mode == CrashMode::kTornWrite && !append) {
    // Rewrite is write-temp-then-rename: a crash mid-write tears the
    // temp file, the rename never happens, and the old contents (or the
    // file's absence) survive untouched.
    crashed_ = true;
    return false;
  }
  uint64_t state = crash_.mutation_seed;
  if (fires && crash_.mode == CrashMode::kTornWrite) {
    // A strict prefix reaches the medium (possibly nothing).
    if (!bytes.empty()) bytes.resize(SplitMix64(state) % bytes.size());
  }
  if (fires && crash_.mode == CrashMode::kCorruptWrite) {
    // For a rewrite this models media rot just after the rename: the
    // new contents are in place but one bit is flipped.
    ApplyBitFlip(bytes, SplitMix64(state));
  }
  std::vector<uint8_t>& destination = files_[file];
  if (append) {
    destination.insert(destination.end(), bytes.begin(), bytes.end());
  } else {
    destination = std::move(bytes);
  }
  if (fires) {
    // Torn, corrupt and after-write crashes all kill the process once the
    // durable bytes are down; the writer never sees the write succeed.
    crashed_ = true;
    return false;
  }
  return true;
}

bool MemStorage::Append(const std::string& file,
                        const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool ok = CommitWrite(file, bytes, /*append=*/true);
  if (ok) {
    ++stats_.appends;
    stats_.bytes_appended += bytes.size();
  }
  return ok;
}

bool MemStorage::Rewrite(const std::string& file,
                         const std::vector<uint8_t>& bytes) {
  return Rewrite(file, std::vector<uint8_t>(bytes));
}

bool MemStorage::Rewrite(const std::string& file,
                         std::vector<uint8_t>&& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t size = bytes.size();
  const bool ok = CommitWrite(file, std::move(bytes), /*append=*/false);
  if (ok) {
    ++stats_.rewrites;
    stats_.bytes_rewritten += size;
  }
  return ok;
}

bool MemStorage::Truncate(const std::string& file, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return false;
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && crash_.mode == CrashMode::kBeforeWrite) {
    crashed_ = true;
    return false;
  }
  auto it = files_.find(file);
  if (it != files_.end() && it->second.size() > size) {
    it->second.resize(size);
  }
  if (fires) {
    // A truncate is all-or-nothing on every sane backend; the remaining
    // crash modes reduce to dying right after it completed.
    crashed_ = true;
    return false;
  }
  ++stats_.truncates;
  return true;
}

std::optional<std::vector<uint8_t>> MemStorage::Read(
    const std::string& file) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::vector<uint8_t>> MemStorage::ReadRange(
    const std::string& file, uint64_t offset, uint64_t length) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it == files_.end() || offset > it->second.size() ||
      length > it->second.size() - offset) {
    return std::nullopt;
  }
  const auto begin = it->second.begin() + static_cast<ptrdiff_t>(offset);
  return std::vector<uint8_t>(begin, begin + static_cast<ptrdiff_t>(length));
}

std::vector<std::string> MemStorage::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, bytes] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

bool MemStorage::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void MemStorage::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  crash_ = CrashPoint{};
  transient_faults_pending_ = 0;
}

uint64_t MemStorage::writes_attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_attempted_;
}

StorageStats MemStorage::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MemStorage::FailNextWrites(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  transient_faults_pending_ = count;
}

}  // namespace mergeable
