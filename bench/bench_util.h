// Shared helpers for the experiment harness binaries.
//
// Each bench regenerates one experiment from DESIGN.md §4 and prints an
// aligned table to stdout; EXPERIMENTS.md records the interpretation.
// Alongside the human-readable tables every bench writes a
// machine-readable mirror, BENCH_<name>.json, in the working directory:
// PrintHeader/PrintRow record what they print, and RunAndDump flushes
// the recording when the bench's Main() succeeds. Numeric-looking cells
// are emitted as JSON numbers so downstream tooling can plot without
// re-parsing the table text.

#ifndef MERGEABLE_BENCH_BENCH_UTIL_H_
#define MERGEABLE_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mergeable/util/latency_reservoir.h"

namespace mergeable::bench {

// Interpolated percentile (sorts in place). The benches used to
// truncate the fractional rank, which systematically understates tail
// percentiles on small sample counts; the shared helper interpolates
// between adjacent order statistics instead (unit-tested in
// tests/util/latency_reservoir_test.cc).
inline double Percentile(std::vector<double>& values, double p) {
  return InterpolatedPercentile(values, p);
}

struct JsonTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

inline std::vector<JsonTable>& JsonTables() {
  static std::vector<JsonTable> tables;
  return tables;
}

// Named scalar counters mirrored into the JSON alongside the tables —
// serving metrics (cache hit rate, nodes merged per query, bytes read)
// that summarize a whole run rather than one table row.
inline std::vector<std::pair<std::string, double>>& JsonCounters() {
  static std::vector<std::pair<std::string, double>> counters;
  return counters;
}

// Records (or overwrites) a counter for the JSON mirror.
inline void RecordCounter(const std::string& name, double value) {
  for (auto& [existing, slot] : JsonCounters()) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  JsonCounters().emplace_back(name, value);
}

// Prints a row of right-aligned cells, 14 characters wide, first cell 28.
inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-28s" : "%14s", cells[i].c_str());
  }
  std::printf("\n");
  if (!JsonTables().empty()) JsonTables().back().rows.push_back(cells);
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  // The column row prints directly (it is not a data row).
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf(i == 0 ? "%-28s" : "%14s", columns[i].c_str());
  }
  std::printf("\n");
  size_t width = 28 + 14 * (columns.size() - 1);
  std::printf("%s\n", std::string(width, '-').c_str());
  JsonTables().push_back(JsonTable{title, columns, {}});
}

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// A cell that parses fully as a finite double is emitted as a number.
inline std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0') return cell;
  }
  // Built with append instead of operator+ chains: GCC 12's -O3 inliner
  // raises a -Wrestrict false positive on the latter.
  std::string quoted = "\"";
  quoted += JsonEscape(cell);
  quoted += '"';
  return quoted;
}

// Build provenance compiled into every bench binary (set by
// bench/CMakeLists.txt). A JSON result that cannot be traced to a
// commit + compiler + flags is not a benchmark result.
#ifndef MERGEABLE_BENCH_GIT_SHA
#define MERGEABLE_BENCH_GIT_SHA "unknown"
#endif
#ifndef MERGEABLE_BENCH_COMPILER
#define MERGEABLE_BENCH_COMPILER "unknown"
#endif
#ifndef MERGEABLE_BENCH_FLAGS
#define MERGEABLE_BENCH_FLAGS ""
#endif

// Writes every recorded table to BENCH_<name>.json.
inline bool WriteBenchJson(const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"bench\": \"%s\",\n", JsonEscape(name).c_str());
  std::fprintf(file,
               "  \"meta\": {\n"
               "    \"git_sha\": \"%s\",\n"
               "    \"compiler\": \"%s\",\n"
               "    \"flags\": \"%s\"\n"
               "  },\n",
               JsonEscape(MERGEABLE_BENCH_GIT_SHA).c_str(),
               JsonEscape(MERGEABLE_BENCH_COMPILER).c_str(),
               JsonEscape(MERGEABLE_BENCH_FLAGS).c_str());
  std::fprintf(file, "  \"tables\": [");
  const auto& tables = JsonTables();
  for (size_t t = 0; t < tables.size(); ++t) {
    std::fprintf(file, "%s\n    {\n      \"title\": \"%s\",\n",
                 t == 0 ? "" : ",", JsonEscape(tables[t].title).c_str());
    std::fprintf(file, "      \"columns\": [");
    for (size_t c = 0; c < tables[t].columns.size(); ++c) {
      std::fprintf(file, "%s\"%s\"", c == 0 ? "" : ", ",
                   JsonEscape(tables[t].columns[c]).c_str());
    }
    std::fprintf(file, "],\n      \"rows\": [");
    for (size_t r = 0; r < tables[t].rows.size(); ++r) {
      std::fprintf(file, "%s\n        [", r == 0 ? "" : ",");
      for (size_t c = 0; c < tables[t].rows[r].size(); ++c) {
        std::fprintf(file, "%s%s", c == 0 ? "" : ", ",
                     JsonCell(tables[t].rows[r][c]).c_str());
      }
      std::fprintf(file, "]");
    }
    std::fprintf(file, "\n      ]\n    }");
  }
  std::fprintf(file, "\n  ]");
  const auto& counters = JsonCounters();
  if (!counters.empty()) {
    std::fprintf(file, ",\n  \"counters\": {");
    for (size_t i = 0; i < counters.size(); ++i) {
      // The shortest decimal that reads back as exactly this double, so
      // a byte count keeps every digit (%g would round it to six).
      char number[32];
      const auto written =
          std::to_chars(number, number + sizeof(number), counters[i].second);
      std::fprintf(file, "%s\n    \"%s\": %.*s", i == 0 ? "" : ",",
                   JsonEscape(counters[i].first).c_str(),
                   static_cast<int>(written.ptr - number), number);
    }
    std::fprintf(file, "\n  }");
  }
  std::fprintf(file, "\n}\n");
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

// Each bench defines Main() and calls this from main(): runs the bench,
// then mirrors its tables to BENCH_<name>.json on success.
inline int RunAndDump(const std::string& name, int (*main_fn)()) {
  const int rc = main_fn();
  if (rc == 0 && !WriteBenchJson(name)) return 1;
  return rc;
}

inline std::string FormatDouble(double value, int decimals = 4) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

inline std::string FormatU64(uint64_t value) { return std::to_string(value); }

// Exact frequencies of a stream (ground truth for error measurements).
inline std::map<uint64_t, uint64_t> TrueCounts(
    const std::vector<uint64_t>& stream) {
  std::map<uint64_t, uint64_t> counts;
  for (uint64_t item : stream) ++counts[item];
  return counts;
}

// max over all items x of |estimate(x) - f(x)|, where `estimate` maps an
// item to the summary's point estimate (items absent from the summary
// must estimate as 0 or the summary's floor — callers decide).
template <typename EstimateFn>
uint64_t MaxAbsError(const std::map<uint64_t, uint64_t>& truth,
                     EstimateFn estimate) {
  uint64_t worst = 0;
  for (const auto& [item, count] : truth) {
    const uint64_t guess = estimate(item);
    const uint64_t error = guess > count ? guess - count : count - guess;
    if (error > worst) worst = error;
  }
  return worst;
}

}  // namespace mergeable::bench

#endif  // MERGEABLE_BENCH_BENCH_UTIL_H_
