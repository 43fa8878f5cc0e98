#include "mergeable/aggregate/storage.h"

#include "mergeable/util/random.h"

namespace mergeable {
namespace {

// Torn appends persist a sector-aligned strict prefix: real disks lose
// power mid-write at sector granularity, not at arbitrary bytes.
constexpr uint64_t kSectorBytes = 512;

uint64_t TornPrefix(uint64_t size, uint64_t rnd) {
  if (size == 0) return 0;
  uint64_t prefix = rnd % size;  // Always a strict prefix.
  if (size > kSectorBytes) prefix &= ~(kSectorBytes - 1);
  return prefix;
}

}  // namespace

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

bool MemStorage::Append(const std::string& file,
                        const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint8_t>& destination = files_[file];
  destination.insert(destination.end(), bytes.begin(), bytes.end());
  return true;
}

bool MemStorage::Rewrite(const std::string& file,
                         const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  files_[file] = bytes;
  return true;
}

bool MemStorage::Truncate(const std::string& file, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(file);
  if (it != files_.end() && it->second.size() > size) {
    it->second.resize(size);
  }
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

bool CrashingStorage::Append(const std::string& file,
                             const std::vector<uint8_t>& bytes) {
  return Write(Op::kAppend, file, bytes, 0);
}

bool CrashingStorage::Rewrite(const std::string& file,
                              const std::vector<uint8_t>& bytes) {
  return Write(Op::kRewrite, file, bytes, 0);
}

bool CrashingStorage::Truncate(const std::string& file, uint64_t size) {
  return Write(Op::kTruncate, file, {}, size);
}

bool CrashingStorage::Write(Op op, const std::string& file,
                            const std::vector<uint8_t>& bytes,
                            uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return false;
  if (op != Op::kTruncate && (fail_next_ > 0 || disk_full_)) {
    if (fail_next_ > 0) --fail_next_;
    ++stats_.transient_failures;
    return false;
  }
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && (crash_.mode == CrashMode::kBeforeWrite ||
                (crash_.mode == CrashMode::kTornWrite && op == Op::kRewrite))) {
    crashed_ = true;
    return false;
  }
  // A truncate has no bytes to tear or flip: it lands whole.
  std::vector<uint8_t> durable = bytes;
  uint64_t state = crash_.mutation_seed;
  if (fires && crash_.mode == CrashMode::kTornWrite) {
    durable.resize(TornPrefix(durable.size(), SplitMix64(state)));
  } else if (fires && crash_.mode == CrashMode::kCorruptWrite) {
    ApplyBitFlip(durable, SplitMix64(state));
  }
  bool ok = false;
  switch (op) {
    case Op::kAppend:
      ok = inner_->Append(file, durable);
      break;
    case Op::kRewrite:
      ok = inner_->Rewrite(file, durable);
      break;
    case Op::kTruncate:
      ok = inner_->Truncate(file, size);
      break;
  }
  if (fires) {
    // The process dies once the durable bytes are down; the writer
    // never learns whether the write landed.
    crashed_ = true;
    return false;
  }
  if (!ok) {
    ++stats_.transient_failures;
    return false;
  }
  switch (op) {
    case Op::kAppend:
      ++stats_.appends;
      stats_.bytes_appended += bytes.size();
      break;
    case Op::kRewrite:
      ++stats_.rewrites;
      stats_.bytes_rewritten += bytes.size();
      break;
    case Op::kTruncate:
      ++stats_.truncates;
      break;
  }
  return true;
}

bool CrashingStorage::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void CrashingStorage::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  crash_ = CrashPoint{};
  fail_next_ = 0;
}

uint64_t CrashingStorage::writes_attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_attempted_;
}

StorageStats CrashingStorage::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CrashingStorage::FailNextWrites(uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_next_ = count;
}

void CrashingStorage::set_disk_full(bool full) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_full_ = full;
}

}  // namespace mergeable
