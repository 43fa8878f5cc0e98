#include "mergeable/aggregate/file_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <string_view>
#include <utility>

#include "mergeable/util/random.h"

namespace mergeable {
namespace {

namespace fs = std::filesystem;

// Torn appends persist a sector-aligned strict prefix: real disks lose
// power mid-write at sector granularity, not at arbitrary bytes.
constexpr uint64_t kSectorBytes = 512;

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool FsyncDirOf(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Writes `bytes` to `path` (O_TRUNC) and fsyncs it. Used for temp files.
bool WriteFileDurable(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = WriteAll(fd, bytes.data(), bytes.size());
  ok = (::fsync(fd) == 0) && ok;
  ::close(fd);
  return ok;
}

uint64_t TornPrefix(uint64_t size, uint64_t rnd) {
  if (size == 0) return 0;
  uint64_t prefix = rnd % size;  // Always a strict prefix.
  if (size > kSectorBytes) prefix &= ~(kSectorBytes - 1);
  return prefix;
}

}  // namespace

void FaultFd::FailNextWrites(Kind kind, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  window_kind_ = kind;
  window_remaining_ = count;
}

void FaultFd::SetSticky(Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  sticky_ = kind;
}

void FaultFd::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sticky_ = Kind::kNone;
  window_kind_ = Kind::kNone;
  window_remaining_ = 0;
}

FaultFd::Kind FaultFd::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_remaining_ > 0) {
    --window_remaining_;
    ++faults_injected_;
    return window_kind_;
  }
  if (sticky_ != Kind::kNone) {
    ++faults_injected_;
    return sticky_;
  }
  return Kind::kNone;
}

uint64_t FaultFd::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

FileStorage::FileStorage(std::string root, CrashPoint crash, FaultFd* faults)
    : root_(std::move(root)), crash_(crash), faults_(faults) {
  while (root_.size() > 1 && root_.back() == '/') root_.pop_back();
  std::error_code ec;
  if (fs::create_directories(root_, ec); !ec) {
    // Make the directory's existence durable before anything lives in it.
    const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  SweepTempFiles();
}

bool FileStorage::ResolvePath(const std::string& file,
                              std::string* path) const {
  if (file.empty() || file.front() == '/') return false;
  size_t start = 0;
  while (start <= file.size()) {
    const size_t slash = file.find('/', start);
    const size_t end = (slash == std::string::npos) ? file.size() : slash;
    const std::string_view segment(file.data() + start, end - start);
    if (segment.empty() || segment == "." || segment == "..") return false;
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  *path = root_ + "/" + file;
  return true;
}

bool FileStorage::EnsureParentDirs(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  std::error_code ec;
  if (fs::exists(parent, ec)) return true;
  // Create each missing component and fsync its parent so the new
  // entry itself is durable, bottom of the stack first.
  std::vector<fs::path> missing;
  fs::path walk = parent;
  while (!walk.empty() && !fs::exists(walk, ec)) {
    missing.push_back(walk);
    walk = walk.parent_path();
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    if (::mkdir(it->c_str(), 0755) != 0 && errno != EEXIST) return false;
    const fs::path grandparent = it->parent_path();
    const int fd =
        ::open(grandparent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  return true;
}

bool FileStorage::AppendLocked(const std::string& file,
                               const std::vector<uint8_t>& bytes) {
  if (crashed_) return false;
  std::string path;
  if (!ResolvePath(file, &path)) return false;
  if (faults_ != nullptr) {
    switch (faults_->Next()) {
      case FaultFd::Kind::kNone:
        break;
      case FaultFd::Kind::kEIO:
      case FaultFd::Kind::kENOSPC:
        // The syscall failed before any byte landed. No write index is
        // consumed, so a retry replays the same durable sequence.
        ++stats_.transient_failures;
        return false;
      case FaultFd::Kind::kShortWrite: {
        // Half the record reaches the disk; roll the file back to its
        // pre-append length so the log is not poisoned, then fail.
        if (!EnsureParentDirs(path)) return false;
        const int fd = ::open(path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd >= 0) {
          struct stat st {};
          const off_t old_size = (::fstat(fd, &st) == 0) ? st.st_size : 0;
          WriteAll(fd, bytes.data(), bytes.size() / 2);
          ::ftruncate(fd, old_size);
          ::fsync(fd);
          ::close(fd);
        }
        ++stats_.transient_failures;
        return false;
      }
    }
  }
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && crash_.mode == CrashMode::kBeforeWrite) {
    crashed_ = true;
    return false;
  }
  if (!EnsureParentDirs(path)) return false;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  struct stat st {};
  const off_t old_size = (::fstat(fd, &st) == 0) ? st.st_size : 0;

  std::vector<uint8_t> durable = bytes;
  uint64_t state = crash_.mutation_seed;
  if (fires && crash_.mode == CrashMode::kTornWrite) {
    durable.resize(TornPrefix(durable.size(), SplitMix64(state)));
  }
  if (fires && crash_.mode == CrashMode::kCorruptWrite) {
    ApplyBitFlip(durable, SplitMix64(state));
  }
  bool ok = WriteAll(fd, durable.data(), durable.size());
  ok = (::fsync(fd) == 0) && ok;
  if (!ok && !fires) {
    // A genuine failure mid-append: roll back to the old length so a
    // retry appends cleanly at the same offset.
    ::ftruncate(fd, old_size);
    ::fsync(fd);
    ::close(fd);
    ++stats_.transient_failures;
    return false;
  }
  ::close(fd);
  if (fires) {
    crashed_ = true;
    return false;
  }
  ++stats_.appends;
  stats_.bytes_appended += bytes.size();
  return true;
}

bool FileStorage::RewriteLocked(const std::string& file,
                                const std::vector<uint8_t>& bytes) {
  if (crashed_) return false;
  std::string path;
  if (!ResolvePath(file, &path)) return false;
  const std::string tmp = path + ".tmp";
  if (faults_ != nullptr) {
    switch (faults_->Next()) {
      case FaultFd::Kind::kNone:
        break;
      case FaultFd::Kind::kEIO:
      case FaultFd::Kind::kENOSPC:
        ++stats_.transient_failures;
        return false;
      case FaultFd::Kind::kShortWrite: {
        // The temp file write dies half way; the destination is never
        // touched. Clean up the temp and fail the call.
        if (EnsureParentDirs(path)) {
          std::vector<uint8_t> half(bytes.begin(),
                                    bytes.begin() + bytes.size() / 2);
          WriteFileDurable(tmp, half);
          ::unlink(tmp.c_str());
        }
        ++stats_.transient_failures;
        return false;
      }
    }
  }
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && crash_.mode == CrashMode::kBeforeWrite) {
    crashed_ = true;
    return false;
  }
  if (!EnsureParentDirs(path)) return false;
  if (fires && crash_.mode == CrashMode::kTornWrite) {
    // The process dies while writing the temp file: a torn temp stays
    // behind (swept on restart) and the destination keeps its old
    // contents — the rename never happened.
    std::vector<uint8_t> torn = bytes;
    torn.resize(TornPrefix(torn.size(), SplitMix64(crash_.mutation_seed)));
    WriteFileDurable(tmp, torn);
    crashed_ = true;
    return false;
  }
  std::vector<uint8_t> durable = bytes;
  if (fires && crash_.mode == CrashMode::kCorruptWrite) {
    // Media rot just after the rename: the new contents are in place
    // with one bit flipped.
    ApplyBitFlip(durable, SplitMix64(crash_.mutation_seed));
  }
  const bool renamed = WriteFileDurable(tmp, durable) &&
                       ::rename(tmp.c_str(), path.c_str()) == 0;
  if (renamed) ForgetReadFd(path);  // The path names a new inode now.
  if (!renamed || !FsyncDirOf(path)) {
    if (!fires) {
      ::unlink(tmp.c_str());
      ++stats_.transient_failures;
      return false;
    }
  }
  if (fires) {
    crashed_ = true;
    return false;
  }
  ++stats_.rewrites;
  stats_.bytes_rewritten += bytes.size();
  return true;
}

bool FileStorage::Append(const std::string& file,
                         const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(file, bytes);
}

bool FileStorage::Rewrite(const std::string& file,
                          const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  return RewriteLocked(file, bytes);
}

bool FileStorage::Truncate(const std::string& file, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return false;
  std::string path;
  if (!ResolvePath(file, &path)) return false;
  const uint64_t index = writes_attempted_++;
  const bool fires =
      crash_.mode != CrashMode::kNone && index == crash_.write_index;
  if (fires && crash_.mode == CrashMode::kBeforeWrite) {
    crashed_ = true;
    return false;
  }
  // A missing file has nothing past `size`; any other failure to open,
  // stat, shrink or sync leaves the tail in place and must be reported,
  // or the caller would append behind bytes it believes are gone.
  bool ok = true;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd >= 0) {
    struct stat st {};
    ok = ::fstat(fd, &st) == 0;
    if (ok && static_cast<uint64_t>(st.st_size) > size) {
      ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0 &&
           ::fsync(fd) == 0;
    }
    ::close(fd);
  } else {
    ok = errno == ENOENT;
  }
  if (fires) {
    // A truncate is all-or-nothing on every sane backend; the remaining
    // crash modes reduce to dying right after it completed.
    crashed_ = true;
    return false;
  }
  if (!ok) {
    ++stats_.transient_failures;
    return false;
  }
  ++stats_.truncates;
  return true;
}

std::optional<std::vector<uint8_t>> FileStorage::Read(
    const std::string& file) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string path;
  if (!ResolvePath(file, &path)) return std::nullopt;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;  // Concurrent truncate; serve what exists.
    done += static_cast<size_t>(n);
  }
  bytes.resize(done);
  ::close(fd);
  return bytes;
}

FileStorage::ReadFd::~ReadFd() { ::close(fd); }

std::shared_ptr<FileStorage::ReadFd> FileStorage::ReadFdFor(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(read_mu_);
  auto it = read_fds_.find(path);
  if (it != read_fds_.end()) return it->second;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  if (read_fds_.size() >= kMaxReadFds) read_fds_.erase(read_fds_.begin());
  auto handle = std::make_shared<ReadFd>(fd);
  read_fds_.emplace(path, handle);
  return handle;
}

void FileStorage::ForgetReadFd(const std::string& path) {
  std::lock_guard<std::mutex> lock(read_mu_);
  read_fds_.erase(path);
}

std::optional<std::vector<uint8_t>> FileStorage::ReadRange(
    const std::string& file, uint64_t offset, uint64_t length) const {
  // No mu_: ResolvePath reads only root_, which never changes.
  std::string path;
  if (!ResolvePath(file, &path)) return std::nullopt;
  const std::shared_ptr<ReadFd> handle = ReadFdFor(path);
  if (handle == nullptr) return std::nullopt;
  if (length == 0) {
    struct stat st {};
    if (::fstat(handle->fd, &st) != 0 ||
        offset > static_cast<uint64_t>(st.st_size)) {
      return std::nullopt;
    }
    return std::vector<uint8_t>();
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(length));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::pread(handle->fd, bytes.data() + done, bytes.size() - done,
                static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // Error, or the file ends inside the range.
    done += static_cast<size_t>(n);
  }
  if (done != bytes.size()) return std::nullopt;
  return bytes;
}

std::vector<std::string> FileStorage::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  std::error_code ec;
  fs::recursive_directory_iterator it(root_, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".tmp") continue;
    names.push_back(
        p.lexically_relative(root_).generic_string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

void FileStorage::SweepTempFiles() {
  std::error_code ec;
  fs::recursive_directory_iterator it(root_, ec), end;
  std::vector<fs::path> stale;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".tmp") {
      stale.push_back(it->path());
    }
  }
  for (const fs::path& p : stale) fs::remove(p, ec);
}

bool FileStorage::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void FileStorage::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  crash_ = CrashPoint{};
  SweepTempFiles();
  // A restarted process holds no descriptors.
  std::lock_guard<std::mutex> read_lock(read_mu_);
  read_fds_.clear();
}

uint64_t FileStorage::writes_attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_attempted_;
}

StorageStats FileStorage::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mergeable
