// Experiment E15 — trace replay through the batched socket ingest path.
//
// The question: what does batching buy the ingest front-end, end to end?
// A deterministic trace (Zipfian item content, bursty arrivals) is
// replayed through real loopback sockets by K client threads against a
// sharded server, sweeping batch size x accept shards, and measuring
// what the wire actually delivers: sustained reports/sec, per-report
// latency percentiles (p50/p99/p999 — a report's latency includes the
// time it sat in the client's batch buffer, so small batches and big
// batches compete fairly), and the shed fraction.
//
// The trace is seeded: the same sweep point replays the same reports in
// the same bursts on every run. Burst lengths are themselves Zipfian,
// so the arrival process has the heavy tail that defeats fixed-rate
// load generators; within a burst reports are back-to-back, between
// bursts the client yields the core.
//
// `--smoke` shrinks the sweep so CI can execute the binary in seconds
// while still exercising every code path (batched and unbatched,
// single- and multi-shard).

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
#include "mergeable/server/sharded_server.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/zipf.h"
#include "mergeable/util/check.h"
#include "mergeable/util/random.h"

namespace mergeable::bench {
namespace {

bool g_smoke = false;

constexpr uint64_t kStream = 1;
constexpr uint64_t kTraceSeed = 0x9e3779b97f4a7c15ull;
constexpr size_t kPayloadPool = 32;   // Distinct report payloads.
constexpr size_t kZipfUniverse = 4096;
constexpr double kZipfAlpha = 1.1;    // Item skew inside each summary.
constexpr uint32_t kMaxBurst = 256;   // Burst lengths are Zipfian in [1, 256].

double ElapsedSec(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The payload pool: a small set of distinct pre-encoded summaries whose
// contents are Zipf-skewed, referenced by the trace. Encoding once
// keeps the client's replay loop at memcpy cost, so the wire and the
// server — not payload generation — are what the bench measures.
std::vector<std::vector<uint8_t>> BuildPayloadPool() {
  const ZipfDistribution zipf(kZipfUniverse, kZipfAlpha);
  Rng rng(kTraceSeed);
  std::vector<std::vector<uint8_t>> pool;
  pool.reserve(kPayloadPool);
  for (size_t p = 0; p < kPayloadPool; ++p) {
    // Coarse summaries keep the per-report wire cost small — the bench
    // measures the transport and server hot path, not summary size.
    SpaceSaving summary = SpaceSaving::ForEpsilon(0.5);
    for (int i = 0; i < 8; ++i) summary.Update(zipf.Sample(rng));
    pool.push_back(EncodeSummary(summary));
  }
  return pool;
}

// One client's slice of the trace: which pool payload each report
// carries, grouped into heavy-tailed bursts. Deterministic per
// (seed, client).
struct TraceSlice {
  std::vector<uint32_t> payload_index;  // One per report.
  std::vector<uint32_t> burst_lengths;  // Sums to payload_index.size().
};

TraceSlice BuildTraceSlice(uint64_t client, uint64_t reports) {
  const ZipfDistribution payload_zipf(kPayloadPool, 1.0);
  const ZipfDistribution burst_zipf(kMaxBurst, 0.9);
  Rng rng(kTraceSeed ^ (client + 1) * 0x2545f4914f6cdd1dull);
  TraceSlice slice;
  slice.payload_index.reserve(reports);
  uint64_t remaining = reports;
  while (remaining > 0) {
    uint32_t burst = static_cast<uint32_t>(burst_zipf.Sample(rng)) + 1;
    if (burst > remaining) burst = static_cast<uint32_t>(remaining);
    slice.burst_lengths.push_back(burst);
    for (uint32_t i = 0; i < burst; ++i) {
      slice.payload_index.push_back(
          static_cast<uint32_t>(payload_zipf.Sample(rng)));
    }
    remaining -= burst;
  }
  return slice;
}

struct SweepPoint {
  uint32_t batch;
  size_t shards;
  size_t clients;
  uint64_t reports_per_client;
};

struct PointResult {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  double shed_frac = 0.0;
  double reports_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

BackoffPolicy ReplayPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 16;
  return policy;
}

PointResult RunPoint(const SweepPoint& point,
                     const std::vector<std::vector<uint8_t>>& pool) {
  MemStorage storage;
  SummaryStore<SpaceSaving> store(&storage, StoreOptions{.prefix = "store",
                                                         .cache_capacity = 64,
                                                         .epsilon = 0.25,
                                                         .num_threads = 1});
  EpochServiceConfig service_config;
  service_config.stream = kStream;
  service_config.shards_per_epoch = point.clients;
  EpochService<SpaceSaving> service(&store, service_config);

  ShardedServerConfig config;
  config.shards = point.shards;
  config.workers_per_shard = 1;
  // Provision admission for the sweep point: the queue must hold every
  // client's in-flight batch (the clients are synchronous, so depth is
  // bounded by clients x batch) — the healthy path should shed nothing,
  // and the shed_frac column proves it.
  config.admission.hard_cap =
      std::max<size_t>(4096, 8 * static_cast<size_t>(point.batch));
  config.admission.high_watermark = config.admission.hard_cap / 2;
  config.admission.low_watermark = config.admission.hard_cap / 8;
  config.admission.byte_budget = 64u << 20;
  config.admission.retry_after_ms = 1;
  ShardedIngestServer server(&service, config);
  MERGEABLE_CHECK_MSG(server.Start(), "server failed to start");

  // Build every slice before the clock starts.
  std::vector<TraceSlice> slices;
  for (size_t c = 0; c < point.clients; ++c) {
    slices.push_back(BuildTraceSlice(c, point.reports_per_client));
  }

  std::vector<std::vector<double>> latencies_us(point.clients);
  std::vector<uint64_t> accepted(point.clients, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < point.clients; ++c) {
    threads.emplace_back([&, c] {
      IngestClient client(server.port());
      MERGEABLE_CHECK_MSG(client.connected(), "client failed to connect");
      BatchOptions options;
      options.max_reports = point.batch;
      client.set_batch_options(options);
      const BackoffPolicy policy = ReplayPolicy();
      const TraceSlice& slice = slices[c];
      latencies_us[c].reserve(slice.payload_index.size());

      // Arrival times of the reports currently sitting in the batch
      // buffer: a report's latency runs from the moment the trace
      // produced it to the moment its batch's verdict came back.
      std::vector<std::chrono::steady_clock::time_point> waiting;
      const auto settle = [&](const BatchOutcome& outcome) {
        const auto done = std::chrono::steady_clock::now();
        for (const auto& arrival : waiting) {
          latencies_us[c].push_back(
              std::chrono::duration<double, std::micro>(done - arrival)
                  .count());
        }
        waiting.clear();
        accepted[c] += outcome.accepted;
      };

      uint64_t next = 0;
      for (const uint32_t burst : slice.burst_lengths) {
        for (uint32_t i = 0; i < burst; ++i, ++next) {
          WireReport report;
          report.shard_id = c;
          report.epoch = next;
          report.payload = pool[slice.payload_index[next]];
          waiting.push_back(std::chrono::steady_clock::now());
          const auto outcome = client.BufferReport(report, policy);
          if (outcome.has_value()) settle(*outcome);
        }
        std::this_thread::yield();  // Inter-burst gap.
      }
      settle(client.Flush(policy));
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_sec = ElapsedSec(start);
  server.Drain();
  const AdmissionStats admission = server.admission_stats();
  server.Stop();

  PointResult result;
  result.offered = point.clients * point.reports_per_client;
  std::vector<double> all;
  for (size_t c = 0; c < point.clients; ++c) {
    result.accepted += accepted[c];
    all.insert(all.end(), latencies_us[c].begin(), latencies_us[c].end());
  }
  std::sort(all.begin(), all.end());
  result.reports_per_sec = static_cast<double>(result.accepted) / wall_sec;
  const uint64_t decided = admission.shed_reports + admission.admitted_reports;
  result.shed_frac = decided == 0 ? 0.0
                                  : static_cast<double>(admission.shed_reports) /
                                        static_cast<double>(decided);
  result.p50_us = Percentile(all, 50);
  result.p99_us = Percentile(all, 99);
  result.p999_us = Percentile(all, 99.9);
  return result;
}

int Main() {
  const std::vector<SweepPoint> sweep =
      g_smoke ? std::vector<SweepPoint>{{1, 1, 1, 200}, {16, 2, 2, 400}}
              : std::vector<SweepPoint>{{1, 1, 2, 3000},
                                        {16, 1, 2, 12000},
                                        {64, 1, 2, 24000},
                                        {256, 1, 2, 48000},
                                        {512, 1, 2, 48000},
                                        {1024, 1, 2, 48000},
                                        {256, 2, 2, 48000},
                                        {512, 2, 4, 24000}};
  const std::vector<std::vector<uint8_t>> pool = BuildPayloadPool();

  PrintHeader(std::string("E15 trace replay, batch x shards sweep") +
                  (g_smoke ? " (smoke)" : ""),
              {"batch", "shards", "clients", "reports", "accepted",
               "shed_frac", "krps", "p50_us", "p99_us", "p999_us"});
  double best_rps = 0.0;
  double p999_at_best = 0.0;
  for (const SweepPoint& point : sweep) {
    const PointResult result = RunPoint(point, pool);
    MERGEABLE_CHECK_MSG(result.accepted == result.offered,
                        "healthy replay lost reports");
    PrintRow({FormatU64(point.batch), FormatU64(point.shards),
              FormatU64(point.clients), FormatU64(result.offered),
              FormatU64(result.accepted), FormatDouble(result.shed_frac),
              FormatDouble(result.reports_per_sec / 1000.0, 1),
              FormatDouble(result.p50_us, 1), FormatDouble(result.p99_us, 1),
              FormatDouble(result.p999_us, 1)});
    if (result.reports_per_sec > best_rps) {
      best_rps = result.reports_per_sec;
      p999_at_best = result.p999_us;
    }
  }
  RecordCounter("max_reports_per_sec", best_rps);
  RecordCounter("p999_us_at_max_rps", p999_at_best);
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
  return mergeable::bench::RunAndDump("ingest_replay", mergeable::bench::Main);
}
