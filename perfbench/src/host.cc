#include "host.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock = 0;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::map<int, uint64_t> TaskTicks() {
  std::map<int, uint64_t> ticks;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ticks;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    uint64_t utime = 0;
    uint64_t stime = 0;
    // Fields after "(comm)": state is field 3; utime 14, stime 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    ticks[std::atoi(entry->d_name)] = utime + stime;
  }
  ::closedir(dir);
  return ticks;
}

std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    total += value;
    if (i == 7) steal = value;
  }
  return {steal, total};
}

uint64_t DirectoryBytes(const std::string& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
  }
  std::ostringstream name;
  name << "fs-0x" << std::hex << static_cast<uint64_t>(info.f_type);
  return name.str();
}

}  // namespace perfbench
