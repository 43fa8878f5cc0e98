// Experiment E14 — durability costs: fsync'd seals, warm restart, and
// scrub throughput over real files (DESIGN.md §12).
//
// The durable store pays for crash safety three times: at seal (one
// fsync'd segment append per epoch leaf, plus best-effort appends for
// completed dyadic nodes), at restart (one sequential scan of every
// segment file rebuilds the manifest and pre-warms the cache), and
// continuously (the scrubber re-reads and re-checksums every durable
// record). Four questions:
//
//  1. What does an fsync'd seal cost as history grows, and how much
//     durable space does N epochs take? (Table 1: epoch-count sweep —
//     seals/s, ms/seal, segment files, MiB on disk.)
//  2. How fast is a warm restart, and does it actually restore serving
//     state? (Table 2: Open() wall time, records scanned, nodes
//     pre-warmed, first-query latency on the reopened store.)
//  3. What does a full scrub pass cost? (Table 3: records and MiB
//     re-verified per pass, records/s — the budget for picking a
//     production scrub interval.)
//  4. Does a restarted process's memory grow with history? (Table 4:
//     peak RSS of a fresh process that opens the store over FileStorage
//     and answers the full-range query, against the history's size.)
//
// MemStorage rows run alongside the file rows at the largest N, so the
// fsync tax is separable from the bookkeeping tax. A second MemStorage
// row at kRestartEpochs is the restart row: Open() over a long history
// with no disk in the way, reported as `restart_open_ms` against
// `restart_history_bytes` (the segment bytes Open() scans). Table 4
// writes each row's segment files to a directory and runs this binary
// again on it (`--open-rss <dir>`), so the peak RSS is that of a process
// that never held the history. `--smoke` shrinks the sweep for CI and
// skips the restart row.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/store/epoch_meta.h"
#include "mergeable/stream/generators.h"
#include "mergeable/util/check.h"

namespace mergeable::bench {
namespace {

bool g_smoke = false;

constexpr double kEpsilon = 0.01;
constexpr uint64_t kStream = 1;
constexpr uint32_t kPerEpoch = 2000;
constexpr uint64_t kRestartEpochs = 16384;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SpaceSaving EpochSummary(uint64_t epoch) {
  StreamSpec spec;
  spec.kind = StreamKind::kZipf;
  spec.n = kPerEpoch;
  spec.universe = 4096;
  spec.alpha = 1.1;
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  for (uint64_t item : GenerateStream(spec, 4200 + epoch)) {
    summary.Update(item);
  }
  return summary;
}

EpochMeta FullMeta(uint64_t epoch) {
  EpochMeta meta;
  meta.epoch = epoch;
  meta.n = kPerEpoch;
  meta.shards_total = 1;
  meta.shards_received = 1;
  return meta;
}

DurableStoreOptions Options() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  return options;
}

// One backend's full lifecycle at one epoch count.
struct LifecycleResult {
  double seal_ms = 0.0;
  double open_ms = 0.0;
  double first_query_ms = 0.0;
  double scrub_ms = 0.0;
  uint64_t scrub_records = 0;
  uint64_t scrub_bytes = 0;
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t nodes_prewarmed = 0;
  uint64_t disk_bytes = 0;
};

uint64_t StorageBytes(const Storage& storage) {
  uint64_t total = 0;
  for (const std::string& file : storage.List()) {
    const auto bytes = storage.Read(file);
    if (bytes.has_value()) total += bytes->size();
  }
  return total;
}

LifecycleResult RunLifecycle(Storage* storage, uint64_t epochs) {
  LifecycleResult result;
  {
    DurableStore<SpaceSaving> store(storage, Options());
    const auto seal_start = std::chrono::steady_clock::now();
    for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
      MERGEABLE_CHECK_MSG(
          store.Seal(kStream, EpochSummary(epoch), FullMeta(epoch)),
          "seal must succeed");
    }
    result.seal_ms = ElapsedMs(seal_start);
  }  // Process "dies": only the durable tier survives.
  result.disk_bytes = StorageBytes(*storage);

  DurableStore<SpaceSaving> reopened(storage, Options());
  const auto open_start = std::chrono::steady_clock::now();
  const OpenReport report = reopened.Open();
  result.open_ms = ElapsedMs(open_start);
  MERGEABLE_CHECK_MSG(report.epochs == epochs,
                      "restart must recover every sealed epoch");
  MERGEABLE_CHECK_MSG(report.corrupt_records == 0 && report.torn_tails == 0,
                      "clean shutdown must scan clean");
  result.segments = report.segments;
  result.records = report.records;
  result.nodes_prewarmed = report.nodes_prewarmed;

  const auto query_start = std::chrono::steady_clock::now();
  const auto answer = reopened.QueryRangePayload(kStream, 0, epochs - 1);
  result.first_query_ms = ElapsedMs(query_start);
  MERGEABLE_CHECK_MSG(answer.has_value(),
                      "full-range query must answer after restart");

  const auto scrub_start = std::chrono::steady_clock::now();
  result.scrub_records = reopened.ScrubOnce();
  result.scrub_ms = ElapsedMs(scrub_start);
  const ScrubStats scrub = reopened.scrub_stats();
  MERGEABLE_CHECK_MSG(scrub.corrupt_found == 0, "media must scrub clean");
  result.scrub_bytes = scrub.bytes_verified;
  return result;
}

// This process's peak resident set (VmHWM) in MiB; 0 if unreadable.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// `--open-rss <dir>`: opens the store over FileStorage at `dir`, answers
// the full-range query, and prints the process's peak RSS in MiB.
int OpenRssMain(const char* dir) {
  FileStorage storage(dir);
  DurableStore<SpaceSaving> store(&storage, Options());
  const OpenReport report = store.Open();
  if (report.epochs == 0) return 1;
  const auto answer = store.QueryRangePayload(kStream, 0, report.epochs - 1);
  if (!answer.has_value()) return 1;
  std::printf("%.2f\n", PeakRssMiB());
  return 0;
}

// Copies every file of `storage` under `dir`, then runs this binary with
// `--open-rss dir` and returns the peak RSS it reports.
std::optional<double> FreshOpenRssMiB(const Storage& storage,
                                      const std::string& dir) {
  for (const std::string& name : storage.List()) {
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    std::filesystem::create_directories(path.parent_path());
    const auto bytes = storage.Read(name);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
    if (!out) return std::nullopt;
  }
  std::error_code ec;
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) return std::nullopt;
  const std::string command = "'" + self + "' --open-rss '" + dir + "'";
  std::FILE* child = ::popen(command.c_str(), "r");
  if (child == nullptr) return std::nullopt;
  double mib = 0.0;
  const bool parsed = std::fscanf(child, "%lf", &mib) == 1;
  if (::pclose(child) != 0 || !parsed) return std::nullopt;
  return mib;
}

double PerSecond(uint64_t count, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(count) * 1000.0 / ms;
}

int Main() {
  std::vector<uint64_t> sweep =
      g_smoke ? std::vector<uint64_t>{32}
              : std::vector<uint64_t>{64, 256, 1024};

  std::string tmpl =
      (std::filesystem::temp_directory_path() / "mergeable_bench_XXXXXX")
          .string();
  const char* root = ::mkdtemp(tmpl.data());
  MERGEABLE_CHECK_MSG(root != nullptr, "mkdtemp must succeed");

  std::printf(
      "E14: DurableStore<SpaceSaving(eps=%g)> over FileStorage in %s;\n"
      "%u zipf items per epoch, fsync per seal, Mem rows for the no-disk "
      "baseline%s\n",
      kEpsilon, root, kPerEpoch, g_smoke ? " (smoke)" : "");

  struct Row {
    std::string backend;
    uint64_t epochs;
    LifecycleResult r;
    double open_rss_mib = 0.0;
  };
  std::vector<Row> rows;
  uint64_t instance = 0;
  const auto measure_rss = [&](Row& row, const Storage& storage) {
    const std::optional<double> rss = FreshOpenRssMiB(
        storage, std::string(root) + "/rss" + std::to_string(instance++));
    MERGEABLE_CHECK_MSG(rss.has_value(), "fresh-process open must succeed");
    row.open_rss_mib = *rss;
  };
  for (uint64_t epochs : sweep) {
    FileStorage storage(std::string(root) + "/n" + std::to_string(instance++));
    rows.push_back({"file", epochs, RunLifecycle(&storage, epochs)});
    measure_rss(rows.back(), storage);
  }
  {
    MemStorage storage;
    rows.push_back({"mem", sweep.back(), RunLifecycle(&storage, sweep.back())});
    measure_rss(rows.back(), storage);
  }
  if (!g_smoke) {
    MemStorage storage;
    rows.push_back(
        {"mem", kRestartEpochs, RunLifecycle(&storage, kRestartEpochs)});
    measure_rss(rows.back(), storage);
  }

  PrintHeader("seal throughput (fsync per epoch)",
              {"backend/epochs", "seals/s", "ms/seal", "segments",
               "records", "MiB on disk"});
  for (const Row& row : rows) {
    PrintRow({row.backend + "/" + std::to_string(row.epochs),
              FormatDouble(PerSecond(row.epochs, row.r.seal_ms), 1),
              FormatDouble(row.r.seal_ms / static_cast<double>(row.epochs), 3),
              FormatU64(row.r.segments), FormatU64(row.r.records),
              FormatDouble(
                  static_cast<double>(row.r.disk_bytes) / (1024.0 * 1024.0),
                  2)});
  }

  PrintHeader("warm restart (Open on a fresh process)",
              {"backend/epochs", "open ms", "epochs/s", "nodes prewarmed",
               "first query ms"});
  for (const Row& row : rows) {
    PrintRow({row.backend + "/" + std::to_string(row.epochs),
              FormatDouble(row.r.open_ms, 2),
              FormatDouble(PerSecond(row.epochs, row.r.open_ms), 1),
              FormatU64(row.r.nodes_prewarmed),
              FormatDouble(row.r.first_query_ms, 3)});
  }

  PrintHeader("scrub pass (full manifest re-verify)",
              {"backend/epochs", "records", "MiB verified", "ms",
               "records/s"});
  for (const Row& row : rows) {
    PrintRow({row.backend + "/" + std::to_string(row.epochs),
              FormatU64(row.r.scrub_records),
              FormatDouble(
                  static_cast<double>(row.r.scrub_bytes) / (1024.0 * 1024.0),
                  2),
              FormatDouble(row.r.scrub_ms, 2),
              FormatDouble(PerSecond(row.r.scrub_records, row.r.scrub_ms),
                           1)});
  }

  PrintHeader("restart memory (fresh process: Open over FileStorage, then "
              "the full-range query)",
              {"backend/epochs", "history MiB", "peak RSS MiB"});
  for (const Row& row : rows) {
    PrintRow({row.backend + "/" + std::to_string(row.epochs),
              FormatDouble(
                  static_cast<double>(row.r.disk_bytes) / (1024.0 * 1024.0),
                  2),
              FormatDouble(row.open_rss_mib, 2)});
  }

  // Dashboard counters: the largest file configuration.
  const Row& serving = rows[sweep.size() - 1];
  RecordCounter("seal_ms_per_epoch",
                serving.r.seal_ms / static_cast<double>(serving.epochs));
  RecordCounter("open_ms", serving.r.open_ms);
  RecordCounter("scrub_records_per_s",
                PerSecond(serving.r.scrub_records, serving.r.scrub_ms));
  RecordCounter("disk_bytes", static_cast<double>(serving.r.disk_bytes));
  RecordCounter("open_rss_mib", serving.open_rss_mib);
  if (!g_smoke) {
    const Row& restart = rows.back();
    RecordCounter("restart_open_ms", restart.r.open_ms);
    RecordCounter("restart_history_bytes",
                  static_cast<double>(restart.r.disk_bytes));
    RecordCounter("restart_open_rss_mib", restart.open_rss_mib);
  }

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return 0;
}

}  // namespace
}  // namespace mergeable::bench

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--open-rss") == 0) {
    return mergeable::bench::OpenRssMain(argv[2]);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      mergeable::bench::g_smoke = true;
    }
  }
  return mergeable::bench::RunAndDump("durable_store", mergeable::bench::Main);
}
