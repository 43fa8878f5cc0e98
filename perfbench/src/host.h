// Process and host accounting for the benchmark's health report: CPU
// time of the process and of single threads, per-thread ticks, the
// hypervisor's steal, disk bytes and the filesystem type.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <pthread.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

// CPU time (user + system) of the whole process, in seconds.
double ProcessCpuSeconds();

// CPU time of one thread of this process, in seconds.
double ThreadCpuSeconds(pthread_t thread);

// CPU ticks (utime + stime) of every thread of this process, by tid.
std::map<int, uint64_t> TaskTicks();

// Jiffies the hypervisor gave to other guests ("steal"), and all
// jiffies, summed over the machine's CPUs.
std::pair<uint64_t, uint64_t> StealJiffies();

// Bytes of the regular files under `root`.
uint64_t DirectoryBytes(const std::string& root);

// The type of the filesystem holding `path` ("ext4", ...).
std::string FilesystemName(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
