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

namespace mergeable {
namespace {

namespace fs = std::filesystem;

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

}  // namespace

FileStorage::FileStorage(std::string root) : root_(std::move(root)) {
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

bool FileStorage::Append(const std::string& file,
                         const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string path;
  if (!ResolvePath(file, &path) || !EnsureParentDirs(path)) return false;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  struct stat st {};
  const off_t old_size = (::fstat(fd, &st) == 0) ? st.st_size : 0;
  bool ok = WriteAll(fd, bytes.data(), bytes.size());
  ok = (::fsync(fd) == 0) && ok;
  if (!ok) {
    // A failure mid-append: roll back to the old length so a retry
    // appends cleanly at the same offset.
    ::ftruncate(fd, old_size);
    ::fsync(fd);
  }
  ::close(fd);
  return ok;
}

bool FileStorage::Rewrite(const std::string& file,
                          const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string path;
  if (!ResolvePath(file, &path) || !EnsureParentDirs(path)) return false;
  const std::string tmp = path + ".tmp";
  const bool renamed = WriteFileDurable(tmp, bytes) &&
                       ::rename(tmp.c_str(), path.c_str()) == 0;
  if (renamed) ForgetReadFd(path);  // The path names a new inode now.
  if (!renamed || !FsyncDirOf(path)) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool FileStorage::Truncate(const std::string& file, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string path;
  if (!ResolvePath(file, &path)) return false;
  // A missing file has nothing past `size`; any other failure to open,
  // stat, shrink or sync leaves the tail in place and must be reported,
  // or the caller would append behind bytes it believes are gone.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok && static_cast<uint64_t>(st.st_size) > size) {
    ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0 && ::fsync(fd) == 0;
  }
  ::close(fd);
  return ok;
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

}  // namespace mergeable
