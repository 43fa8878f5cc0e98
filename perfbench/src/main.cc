// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch directory>
//
// Prints one JSON line with the run's end-to-end metrics, the counters
// the per-layer metrics are derived from, generator health and the
// correctness checks. With --trace 1 it also writes <dir>/spans.tsv.
// run.py turns this into the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--dir") == 0) {
      options.dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return 2;
    }
  }
  if (options.workload.empty() || options.dir.empty() ||
      !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --dir <dir>\n");
    return 2;
  }
  return perfbench::RunWorkload(options);
}
