// The benchmark's workloads and the driver that runs one of them
// against the real stack:
//
//   IngestClient -> ShardedIngestServer -> EpochService -> DurableStore
//                -> FileStorage
//
// A run generates its inputs from the seed, writes a durable history,
// restarts the program on it (timed as set-up), then drives a bounded
// steady state: open-loop ingest connections at fixed rates, a sealer
// that seals an epoch as soon as its last shard's report is accepted,
// and an open-loop QRY1 stream. Only the phase after a warm-up is
// measured. Outputs are checked against the generator's exact counts.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct WorkloadSpec {
  const char* name;

  // Summary family: Count-Min (depth x width) or SpaceSaving(epsilon).
  bool count_min = false;
  double ss_epsilon = 0.5;
  int cm_depth = 4;
  int cm_width = 2048;
  // Item stream inside every summary: Zipf(1.1) over `universe` ranks.
  uint64_t universe = 4096;

  // Ingest. Each report carries one of `payload_pool` pre-encoded
  // summaries of `items_per_report` items, chosen Zipf(1.0) per
  // (epoch, shard). `ingest_connections` open-loop connections split
  // each epoch's shards; each sends `bursts_per_sec` bursts a second,
  // one BAT1 batch per burst: Zipf(0.9)-sized up to `max_burst`
  // reports, or `batch_reports` each when `max_burst` is 0.
  uint64_t shards_per_epoch = 2048;
  uint32_t items_per_report = 8;
  uint32_t payload_pool = 32;
  uint32_t ingest_connections = 1;
  double bursts_per_sec = 100.0;
  uint32_t max_burst = 0;
  uint32_t batch_reports = 16;

  // Durable history written before set-up; each epoch is one summary
  // of `history_items_per_epoch` items.
  uint64_t history_epochs = 256;
  uint32_t history_items_per_epoch = 8192;

  // Program configuration.
  size_t workers_per_shard = 1;
  size_t cache_capacity = 256;
  uint64_t window_capacity = 64;

  // Open-loop QRY1 stream: `query_rate` queries per second in total,
  // spread over `query_connections` synchronous connections so that
  // each one's share stays below what it can answer.
  double query_rate = 200.0;
  uint32_t query_connections = 1;

  // One report in this many has its latency sampled (all are counted);
  // keeps the generator's own memory small at high report rates.
  uint64_t latency_stride = 1;

  int setup_repeats = 5;
};

// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory of this run: the data directory and, when
  // tracing, the span dump go here.
  std::string dir;
};

// Runs one workload and prints its result as one JSON line on stdout.
// Returns the process exit code.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
