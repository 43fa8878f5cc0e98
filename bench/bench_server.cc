// Experiment E13 — the socket ingest service under load (DESIGN.md §11).
//
// Two questions about the overload-resilient front-end:
//
//  1. What does a healthy ingest round-trip cost? (Table 1: concurrent
//     client sweep; per-report p50/p99 latency over real loopback
//     sockets, every report synchronous send -> verdict.)
//  2. What happens when the service stalls under a burst? (Table 2:
//     workers paused while clients blast pipelined reports; admission
//     sheds everything past the watermark with retry-after NACKs, and
//     a retry pass after recovery lands every shed report.)
//
// `--smoke` shrinks both sweeps so CI can execute the binary in seconds
// while still exercising every code path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable::bench {
namespace {

bool g_smoke = false;

constexpr double kEpsilon = 0.02;
constexpr uint64_t kStream = 1;
constexpr uint64_t kMaxClients = 8;

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

SpaceSaving ReportSummary(uint64_t epoch, uint64_t shard) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(1000 * epoch + shard);
  for (int i = 0; i < 64; ++i) summary.Update(rng.UniformInt(256));
  return summary;
}

BackoffPolicy RetryPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 16;
  return policy;
}

// One full service stack listening on an ephemeral loopback port.
struct Stack {
  MemStorage storage;
  SummaryStore<SpaceSaving> store;
  EpochService<SpaceSaving> service;
  IngestServer server;

  explicit Stack(const ServerConfig& config)
      : store(&storage, StoreOptions{.prefix = "store",
                                     .cache_capacity = 64,
                                     .epsilon = kEpsilon,
                                     .num_threads = 1}),
        service(&store, ServiceConfig()),
        server(&service, config) {
    MERGEABLE_CHECK_MSG(server.Start(), "server failed to start");
  }

  static EpochServiceConfig ServiceConfig() {
    EpochServiceConfig config;
    config.stream = kStream;
    config.shards_per_epoch = kMaxClients;
    return config;
  }
};

// Table 1: healthy-path round-trip latency as client concurrency grows.
void BenchIngestLatency() {
  const int per_client = g_smoke ? 100 : 500;
  PrintHeader(
      std::string("E13.1 ingest round-trip latency, ") +
          std::to_string(per_client) + " reports/client" +
          (g_smoke ? " (smoke)" : ""),
      {"clients", "reports", "accepted", "p50_ms", "p99_ms", "p999_ms",
       "krps"});

  for (int clients : {1, 2, 4, 8}) {
    if (g_smoke && clients > 2) break;
    ServerConfig config;
    config.workers = 2;
    Stack stack(config);

    std::vector<std::vector<double>> latencies(clients);
    std::vector<uint64_t> accepted(clients, 0);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        IngestClient client(stack.server.port());
        const BackoffPolicy policy = RetryPolicy();
        for (int i = 0; i < per_client; ++i) {
          WireReport report;
          report.shard_id = static_cast<uint64_t>(c);
          report.epoch = static_cast<uint64_t>(i);
          report.payload =
              EncodeSummary(ReportSummary(report.epoch, report.shard_id));
          const auto sent = std::chrono::steady_clock::now();
          if (client.SendReport(report, policy) == SendStatus::kAccepted) {
            ++accepted[c];
          }
          latencies[c].push_back(ElapsedMs(sent));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_ms = ElapsedMs(start);
    stack.server.Stop();

    std::vector<double> all;
    uint64_t total_accepted = 0;
    for (int c = 0; c < clients; ++c) {
      all.insert(all.end(), latencies[c].begin(), latencies[c].end());
      total_accepted += accepted[c];
    }
    const uint64_t reports = static_cast<uint64_t>(clients) *
                             static_cast<uint64_t>(per_client);
    PrintRow({FormatU64(static_cast<uint64_t>(clients)), FormatU64(reports),
              FormatU64(total_accepted), FormatDouble(Percentile(all, 50)),
              FormatDouble(Percentile(all, 99)),
              FormatDouble(Percentile(all, 99.9)),
              FormatDouble(static_cast<double>(reports) / wall_ms, 2)});
    if (clients == 1) {
      RecordCounter("p99_ms_single_client", Percentile(all, 99));
      RecordCounter("p999_ms_single_client", Percentile(all, 99.9));
    }
  }
}

// Table 2: a pipelined burst against stalled workers. Admission holds
// the queue at its watermark, sheds the rest with retry-after NACKs,
// and a retry pass once the workers return lands every shed report.
void BenchOverloadShedding() {
  const int clients = g_smoke ? 2 : 4;
  PrintHeader(
      std::string("E13.2 burst against stalled workers, ") +
          std::to_string(clients) + " clients" + (g_smoke ? " (smoke)" : ""),
      {"burst/client", "offered", "admitted", "shed", "shed_frac",
       "retry_ok"});

  double last_shed_frac = 0.0;
  for (int burst : {16, 64, 256}) {
    if (g_smoke && burst > 64) break;
    ServerConfig config;
    config.workers = 2;
    config.admission.high_watermark = 16;
    config.admission.low_watermark = 4;
    config.admission.hard_cap = 64;
    config.admission.retry_after_ms = 1;
    Stack stack(config);
    stack.server.PauseWorkers(true);

    // Each client pipelines its burst (send everything, then read every
    // verdict) and remembers which reports were shed.
    std::vector<std::vector<WireReport>> shed(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        IngestClient client(stack.server.port());
        std::vector<WireReport> reports;
        for (int i = 0; i < burst; ++i) {
          WireReport report;
          report.shard_id = static_cast<uint64_t>(c);
          report.epoch = static_cast<uint64_t>(i);
          report.payload =
              EncodeSummary(ReportSummary(report.epoch, report.shard_id));
          reports.push_back(report);
          MERGEABLE_CHECK_MSG(client.SendFrame(EncodeReportFrame(report)),
                              "send failed");
        }
        // NACKs for shed reports arrive immediately; ACKs for admitted
        // ones only land after the workers resume — so resume-time is
        // when the verdict read below completes.
        for (int i = 0; i < burst; ++i) {
          const auto frame = client.ReadFrame();
          if (!frame.has_value()) break;
          const auto control = DecodeControlFrame(*frame);
          if (control.has_value() &&
              control->code == ControlCode::kRetryAfter) {
            shed[c].push_back(reports[control->epoch]);
          }
        }
      });
    }
    // Give the burst time to hit admission, then let the workers drain
    // it so the clients can finish reading their verdicts.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stack.server.PauseWorkers(false);
    for (std::thread& thread : threads) thread.join();
    stack.server.Drain();

    // Recovery: retry every shed report under the client backoff
    // policy; the queue has drained, so all of them must land.
    uint64_t retried_ok = 0;
    uint64_t shed_total = 0;
    for (int c = 0; c < clients; ++c) {
      IngestClient client(stack.server.port());
      const BackoffPolicy policy = RetryPolicy();
      for (const WireReport& report : shed[c]) {
        ++shed_total;
        if (client.SendReport(report, policy) == SendStatus::kAccepted) {
          ++retried_ok;
        }
      }
    }
    const AdmissionStats stats = stack.server.admission_stats();
    stack.server.Stop();

    const uint64_t offered = static_cast<uint64_t>(clients) *
                             static_cast<uint64_t>(burst);
    last_shed_frac =
        static_cast<double>(shed_total) / static_cast<double>(offered);
    MERGEABLE_CHECK_MSG(stats.peak_depth <= config.admission.hard_cap,
                        "queue exceeded its hard cap");
    PrintRow({FormatU64(static_cast<uint64_t>(burst)), FormatU64(offered),
              FormatU64(offered - shed_total), FormatU64(shed_total),
              FormatDouble(last_shed_frac), FormatU64(retried_ok)});
    MERGEABLE_CHECK_MSG(retried_ok == shed_total,
                        "a shed report failed to land on retry");
  }
  RecordCounter("shed_frac_at_max_burst", last_shed_frac);
}

// Table 3: batched ingest (BAT1) round trips. Per-FRAME latency is the
// flush round trip; per-REPORT latency runs from the moment a report
// enters the batch buffer to the moment its batch's verdict lands — the
// early reports of a batch pay for the buffer fill, which is the honest
// cost of batching and exactly what E15's replay measures at scale.
void BenchBatchedLatency() {
  const int flushes = g_smoke ? 20 : 100;
  PrintHeader(
      std::string("E13.3 batched ingest latency, 1 client, ") +
          std::to_string(flushes) + " flushes" + (g_smoke ? " (smoke)" : ""),
      {"batch", "reports", "frame_p50_ms", "frame_p99_ms", "frame_p999_ms",
       "rep_p50_ms", "rep_p99_ms", "rep_p999_ms", "krps"});

  for (int batch : {16, 64, 256}) {
    if (g_smoke && batch > 16) break;
    ServerConfig config;
    config.workers = 2;
    config.admission.hard_cap =
        std::max<size_t>(1024, 4 * static_cast<size_t>(batch));
    config.admission.high_watermark = config.admission.hard_cap / 2;
    config.admission.low_watermark = config.admission.hard_cap / 8;
    Stack stack(config);

    IngestClient client(stack.server.port());
    MERGEABLE_CHECK_MSG(client.connected(), "client failed to connect");
    BatchOptions options;
    options.max_reports = static_cast<uint32_t>(batch);
    client.set_batch_options(options);
    const BackoffPolicy policy = RetryPolicy();

    const uint64_t reports =
        static_cast<uint64_t>(flushes) * static_cast<uint64_t>(batch);
    std::vector<double> frame_lat;
    std::vector<double> report_lat;
    std::vector<std::chrono::steady_clock::time_point> waiting;
    uint64_t accepted = 0;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < reports; ++i) {
      WireReport report;
      report.shard_id = 0;
      report.epoch = i;
      report.payload = EncodeSummary(ReportSummary(i, 0));
      const auto arrival = std::chrono::steady_clock::now();
      waiting.push_back(arrival);
      const auto outcome = client.BufferReport(std::move(report), policy);
      if (!outcome.has_value()) continue;
      const auto done = std::chrono::steady_clock::now();
      frame_lat.push_back(
          std::chrono::duration<double, std::milli>(done - arrival).count());
      for (const auto& entry : waiting) {
        report_lat.push_back(
            std::chrono::duration<double, std::milli>(done - entry).count());
      }
      waiting.clear();
      accepted += outcome->accepted;
    }
    // Large batches may flush early on the byte threshold, so the loop
    // end need not align with a flush; drain the remainder explicitly.
    if (!waiting.empty()) {
      const auto flush_start = std::chrono::steady_clock::now();
      const BatchOutcome tail = client.Flush(policy);
      const auto done = std::chrono::steady_clock::now();
      frame_lat.push_back(
          std::chrono::duration<double, std::milli>(done - flush_start)
              .count());
      for (const auto& entry : waiting) {
        report_lat.push_back(
            std::chrono::duration<double, std::milli>(done - entry).count());
      }
      waiting.clear();
      accepted += tail.accepted;
    }
    const double wall_ms = ElapsedMs(start);
    stack.server.Stop();
    MERGEABLE_CHECK_MSG(accepted == reports, "batched bench lost reports");

    PrintRow({FormatU64(static_cast<uint64_t>(batch)), FormatU64(reports),
              FormatDouble(Percentile(frame_lat, 50)),
              FormatDouble(Percentile(frame_lat, 99)),
              FormatDouble(Percentile(frame_lat, 99.9)),
              FormatDouble(Percentile(report_lat, 50)),
              FormatDouble(Percentile(report_lat, 99)),
              FormatDouble(Percentile(report_lat, 99.9)),
              FormatDouble(static_cast<double>(reports) / wall_ms, 2)});
  }
}

int Main() {
  BenchIngestLatency();
  BenchOverloadShedding();
  BenchBatchedLatency();
  return 0;
}

}  // namespace
}  // namespace mergeable::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      mergeable::bench::g_smoke = true;
    }
  }
  return mergeable::bench::RunAndDump("server", mergeable::bench::Main);
}
