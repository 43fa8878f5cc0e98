// A complete ingest service over real sockets: shard clients push
// SpaceSaving summaries to a loopback TCP server (server/ingest_server.h),
// the epoch service seals each epoch into a summary store, and range
// queries are answered over the same connection — including a
// deadline-bounded query that returns a partial answer with an honestly
// widened error bound.
//
// The run also demonstrates the overload path end to end: with the
// workers stalled, a burst past the admission watermark is shed with
// retry-after NACKs, the client's backoff policy retries, and once the
// queue drains every shed report lands — the sealed epoch then accounts
// exactly zero lost mass.
//
// Durable mode (--data-dir DIR): the same service stack persisted
// through a DurableStore over real files — fsync'd segment appends, a
// background scrubber, and warm restart. `--restore` reopens an
// existing directory, resumes the epoch axis where the last process
// (however it died — kill -9 included) left off, and serves the full
// history. durable_restart_demo.sh scripts the whole arc.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/transport.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/ingest_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/bytes.h"
#include "mergeable/util/random.h"

namespace {

using mergeable::BackoffPolicy;
using mergeable::ByteReader;
using mergeable::DurableStore;
using mergeable::DurableStoreOptions;
using mergeable::EpochService;
using mergeable::EpochServiceConfig;
using mergeable::FileStorage;
using mergeable::IngestClient;
using mergeable::IngestServer;
using mergeable::MemStorage;
using mergeable::OpenReport;
using mergeable::Rng;
using mergeable::SendStatus;
using mergeable::ServerConfig;
using mergeable::SpaceSaving;
using mergeable::WireQuery;
using mergeable::WireReport;

constexpr uint64_t kStream = 1;
constexpr uint64_t kShards = 4;
constexpr double kEpsilon = 0.01;

SpaceSaving ShardMinute(uint64_t epoch, uint64_t shard) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(100 * epoch + shard);
  for (int i = 0; i < 2000; ++i) {
    // A skewed workload: a few hot items over a large cold universe.
    summary.Update(rng.Bernoulli(0.4) ? rng.UniformInt(8)
                                      : 100 + rng.UniformInt(100000));
  }
  return summary;
}

// The store both modes seal into: the summaries' epsilon, a 64-entry
// node cache.
DurableStoreOptions ServingOptions() {
  DurableStoreOptions options;
  options.store.epsilon = kEpsilon;
  options.store.cache_capacity = 64;
  return options;
}

BackoffPolicy RetryPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 32;
  return policy;
}

// Durable mode: the same stack persisted through DurableStore over
// real files. Every run (fresh or restored) seals `epochs` more epochs
// of shard traffic starting wherever the store's axis ends, with the
// scrubber re-verifying checksums in the background, then answers the
// full history — including everything earlier processes wrote.
int RunDurable(const std::string& data_dir, bool restore, uint64_t epochs) {
  FileStorage storage(data_dir);
  DurableStore<SpaceSaving> store(&storage, ServingOptions());
  const OpenReport report = store.Open();
  if (restore) {
    std::printf("restored %llu epochs from %s "
                "(%llu records, %llu corrupt, %llu torn tails)\n",
                (unsigned long long)report.epochs, data_dir.c_str(),
                (unsigned long long)report.records,
                (unsigned long long)report.corrupt_records,
                (unsigned long long)report.torn_tails);
  }

  EpochServiceConfig service_config;
  service_config.stream = kStream;
  service_config.shards_per_epoch = kShards;
  EpochService<SpaceSaving, DurableStore<SpaceSaving>> service(
      &store, service_config);
  // Placeholder seals keep the epoch axis contiguous through outages.
  service.set_empty_summary_factory(
      [] { return SpaceSaving::ForEpsilon(kEpsilon); });
  store.StartScrubber();
  IngestServer server(&service, ServerConfig{});
  if (!server.Start()) {
    std::printf("failed to start server\n");
    return 1;
  }
  std::fprintf(stderr, "durable ingest server on 127.0.0.1:%u, axis at %llu\n",
               server.port(), (unsigned long long)service.next_epoch());

  const BackoffPolicy policy = RetryPolicy();
  IngestClient client(server.port());
  const uint64_t first = service.next_epoch();
  for (uint64_t epoch = first; epoch < first + epochs; ++epoch) {
    uint64_t offered = 0;
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      const SpaceSaving summary = ShardMinute(epoch, shard);
      offered += summary.n();
      WireReport wire_report;
      wire_report.shard_id = shard;
      wire_report.epoch = epoch;
      wire_report.payload = EncodeSummary(summary);
      (void)client.SendBatch({wire_report}, policy);
    }
    server.Drain();
    // The leaf record is fsync'd before the seal is acknowledged: a
    // kill -9 after this line never loses the epoch.
    if (service.SealEpoch(epoch, offered)) {
      std::printf("sealed epoch %llu\n", (unsigned long long)epoch);
      std::fflush(stdout);
    }
  }

  // The full history, including everything earlier processes sealed.
  WireQuery query;
  query.stream = kStream;
  query.t1 = 0;
  query.t2 = service.next_epoch() > 0 ? service.next_epoch() - 1 : 0;
  if (const auto answer = client.Query(query)) {
    std::printf("history [0,%llu]: n=%llu lost=%llu bound=%.1f\n",
                (unsigned long long)query.t2,
                (unsigned long long)answer->n_received,
                (unsigned long long)answer->lost_mass,
                answer->full_stream_bound);
  }
  const auto scrub = store.scrub_stats();
  std::printf("scrubber: %llu passes, %llu records verified, %llu corrupt\n",
              (unsigned long long)scrub.passes,
              (unsigned long long)scrub.records_verified,
              (unsigned long long)scrub.corrupt_found);

  server.Stop();
  store.StopScrubber();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  bool restore = false;
  uint64_t epochs = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      restore = true;
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      epochs = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--data-dir DIR [--restore] [--epochs N]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!data_dir.empty()) return RunDurable(data_dir, restore, epochs);

  // The service stack: storage <- summary store <- epoch service
  // <- socket server, listening on an ephemeral loopback port.
  MemStorage storage;
  DurableStore<SpaceSaving> store(&storage, ServingOptions());
  EpochServiceConfig service_config;
  service_config.stream = kStream;
  service_config.shards_per_epoch = kShards;
  // Each merged tree node charges 1ms of virtual budget, so a query's
  // deadline_ms directly bounds how many nodes it may touch.
  service_config.query_cost_per_node_ms = 1;
  EpochService<SpaceSaving> service(&store, service_config);
  ServerConfig server_config;
  server_config.admission.high_watermark = 4;
  server_config.admission.low_watermark = 2;
  IngestServer server(&service, server_config);
  if (!server.Start()) {
    std::printf("failed to start server\n");
    return 1;
  }
  // (The ephemeral port number goes to stderr so stdout stays
  // byte-identical across runs — every number below is deterministic.)
  std::fprintf(stderr, "ingest server listening on 127.0.0.1:%u\n",
               server.port());

  // Eight epochs of healthy traffic: every shard pushes its summary,
  // the service seals once the fleet has reported.
  const BackoffPolicy policy = RetryPolicy();
  IngestClient client(server.port());
  for (uint64_t epoch = 0; epoch < 8; ++epoch) {
    uint64_t offered = 0;
    for (uint64_t shard = 0; shard < kShards; ++shard) {
      const SpaceSaving summary = ShardMinute(epoch, shard);
      offered += summary.n();
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      if (client.SendBatch({report}, policy).status != SendStatus::kAccepted) {
        std::printf("shard %llu lost in epoch %llu\n",
                    (unsigned long long)shard, (unsigned long long)epoch);
      }
    }
    server.Drain();
    service.SealEpoch(epoch, offered);
  }
  std::printf("sealed 8 epochs, %llu reports accepted\n",
              (unsigned long long)service.stats().reports_accepted);

  // A range query over the wire: epochs [2, 6], no deadline.
  WireQuery query;
  query.stream = kStream;
  query.t1 = 2;
  query.t2 = 6;
  if (const auto answer = client.Query(query)) {
    std::printf("range [2,6]: n=%llu lost=%llu bound=%.1f coverage=%.2f\n",
                (unsigned long long)answer->n_received,
                (unsigned long long)answer->lost_mass,
                answer->full_stream_bound, answer->coverage);
    // The payload is the merged summary itself — decode and use it.
    if (const auto tagged = mergeable::DecodeTaggedPayload(answer->payload)) {
      ByteReader reader(tagged->payload);
      if (const auto merged = SpaceSaving::DecodeFrom(reader)) {
        const auto top = merged->FrequentItems(merged->n() / 20);
        std::printf("  %zu heavy hitters above 5%% of range mass\n",
                    top.size());
      }
    }
  }

  // The same range under a tight deadline: the answer covers the prefix
  // it could afford and widens its bound by every byte it skipped.
  query.deadline_ms = 1;
  if (const auto partial = client.Query(query)) {
    std::printf("range [2,6] deadline=1ms: partial=%s covered=%llu "
                "bound=%.1f\n",
                partial->partial ? "yes" : "no",
                (unsigned long long)partial->epochs_covered,
                partial->full_stream_bound);
  }

  std::printf("\n-- overload --\n");
  // Stall the workers and blast a burst: admission keeps the queue at
  // its watermark and sheds the rest with retry-after NACKs.
  server.PauseWorkers(true);
  std::vector<WireReport> burst;
  for (uint64_t shard = 0; shard < kShards; ++shard) {
    for (int copy = 0; copy < 4; ++copy) {
      WireReport report;
      report.shard_id = shard;
      report.epoch = 8 + copy;
      report.payload = EncodeSummary(ShardMinute(8 + copy, shard));
      burst.push_back(report);
    }
  }
  IngestClient bursty(server.port());
  for (const WireReport& report : burst) {
    bursty.SendFrame(mergeable::EncodeBatchFrame({{report}}));
  }
  // With the workers stalled, the outcome is fully determined: the
  // first high_watermark (4) reports sit admitted in the queue and the
  // other 12 are NACKed kRetryAfter immediately — read those verdicts
  // while the stall holds.
  uint64_t shed = 0;
  for (size_t i = 0; i < burst.size() - 4; ++i) {
    if (const auto frame = bursty.ReadFrame()) {
      const auto verdict = mergeable::DecodeBatchVerdictFrame(*frame);
      if (verdict &&
          verdict->batch_code == mergeable::ControlCode::kRetryAfter) {
        ++shed;
      }
    }
  }
  // Recovery: unpause, drain, resend everything under the backoff
  // policy — a verdict names no report, so the admitted ones go again
  // and come back kDuplicate; the retry-after hints pace the client.
  server.PauseWorkers(false);
  server.Drain();
  uint64_t landed = 0;
  IngestClient retrier(server.port());
  for (const WireReport& report : burst) {
    if (retrier.SendBatch({report}, policy).status == SendStatus::kAccepted) {
      ++landed;
    }
  }
  const auto admission = server.admission_stats();
  std::printf("burst of %zu: %llu shed with retry-after, "
              "all %llu landed on retry (peak queue depth %llu)\n",
              burst.size(), (unsigned long long)shed,
              (unsigned long long)landed,
              (unsigned long long)admission.peak_depth);

  server.Stop();
  return 0;
}
