// Wire merge: what the merge model actually looks like in production —
// workers serialize their summaries to framed reports, and the
// aggregation coordinator (mergeable/aggregate) collects them over a
// faulty network: corrupted frames are rejected by checksum + payload
// validation and retried with capped exponential backoff, duplicates
// and stragglers are deduplicated by (shard, epoch), a report of a
// shape the fold cannot merge is refused, and permanently dead workers
// degrade the answer honestly — the result reports its coverage and a
// widened full-stream error bound instead of silently biasing the
// estimates. The received reports fold left-deep in shard order, the
// same fold the ingest service seals with. No raw data ever crosses the
// wire, only O(1/epsilon)-sized summaries.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/frequency/topk.h"
#include "mergeable/quantiles/mergeable_quantiles.h"
#include "mergeable/stream/generators.h"
#include "mergeable/stream/partition.h"

namespace {

using mergeable::AccountErrors;
using mergeable::AggregationResult;
using mergeable::BackoffPolicy;
using mergeable::Coordinator;
using mergeable::ErrorAccounting;
using mergeable::FaultPlan;
using mergeable::FaultSpec;
using mergeable::MakeReportFrame;
using mergeable::MergeableQuantiles;
using mergeable::SimulatedTransport;
using mergeable::SpaceSaving;

constexpr uint64_t kEpoch = 42;
constexpr size_t kWorkers = 24;
constexpr double kHhEpsilon = 0.001;
constexpr double kLatEpsilon = 0.01;

// The fault model this run simulates: a fifth of the exchanges corrupt
// or drop the frame, some replies straggle past the timeout, and two
// workers never answer at all.
FaultPlan BuildFaultPlan() {
  FaultSpec spec;
  spec.drop_probability = 0.10;
  spec.bit_flip_probability = 0.08;
  spec.truncate_probability = 0.04;
  spec.duplicate_probability = 0.05;
  spec.delay_probability = 0.10;
  spec.delay_ms = 400;
  FaultPlan plan(spec, /*seed=*/2024);
  plan.KillShard(3);
  plan.KillShard(17);
  return plan;
}

BackoffPolicy RetryPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 200;
  policy.attempt_timeout_ms = 50;
  policy.deadline_ms = 2000;
  return policy;
}

template <typename S>
void PrintRunStats(const char* what, const AggregationResult<S>& result,
                   const SimulatedTransport& transport) {
  std::printf(
      "%s: %zu/%zu shards (coverage %.1f%%), %llu retries, "
      "%llu malformed + %llu duplicate frames rejected\n",
      what, result.shards_received, result.shards_total,
      100.0 * result.Coverage(),
      static_cast<unsigned long long>(result.retries),
      static_cast<unsigned long long>(result.malformed_rejected),
      static_cast<unsigned long long>(result.duplicates_rejected));
  std::printf(
      "  faults injected: %llu drops, %llu corruptions, %llu duplicates, "
      "%llu delays\n",
      static_cast<unsigned long long>(transport.drops_injected()),
      static_cast<unsigned long long>(transport.corruptions_injected()),
      static_cast<unsigned long long>(transport.duplicates_injected()),
      static_cast<unsigned long long>(transport.delays_injected()));
}

}  // namespace

int main() {
  // The cluster's combined workload, split across the workers.
  mergeable::StreamSpec spec;
  spec.kind = mergeable::StreamKind::kZipf;
  spec.n = 1 << 20;
  spec.universe = 1 << 15;
  spec.alpha = 1.1;
  const auto stream = mergeable::GenerateStream(spec, 7);
  const auto shards = mergeable::PartitionStream(
      stream, kWorkers, mergeable::PartitionPolicy::kRandom, 3);

  // Workers summarize their shards and submit framed reports: one
  // heavy-hitter summary and one latency-quantile summary each.
  SimulatedTransport hh_transport{BuildFaultPlan()};
  SimulatedTransport lat_transport{BuildFaultPlan()};
  size_t wire_bytes = 0;
  for (size_t w = 0; w < shards.size(); ++w) {
    SpaceSaving hh = SpaceSaving::ForEpsilon(kHhEpsilon);
    MergeableQuantiles lat = MergeableQuantiles::ForEpsilon(kLatEpsilon,
                                                            100 + w);
    for (uint64_t item : shards[w]) {
      hh.Update(item);
      lat.Update(static_cast<double>(item % 500) / 10.0);  // Fake ms.
    }
    auto hh_frame = MakeReportFrame(hh, w, kEpoch);
    auto lat_frame = MakeReportFrame(lat, w, kEpoch);
    wire_bytes += hh_frame.size() + lat_frame.size();
    hh_transport.Submit(w, std::move(hh_frame));
    lat_transport.Submit(w, std::move(lat_frame));
  }

  // The coordinator fetches, validates, dedups and folds; a report the
  // fold cannot merge is counted as incompatible, never merged.
  Coordinator<SpaceSaving> hh_coordinator(kEpoch, RetryPolicy());
  const auto hh_result = hh_coordinator.Run(hh_transport, kWorkers);

  Coordinator<MergeableQuantiles> lat_coordinator(kEpoch, RetryPolicy());
  const auto lat_result = lat_coordinator.Run(lat_transport, kWorkers);

  std::printf("raw data: %zu items; wire traffic: %.1f KB total "
              "(%.4f%% of the raw stream)\n\n",
              stream.size(), wire_bytes / 1024.0,
              100.0 * static_cast<double>(wire_bytes) /
                  (static_cast<double>(stream.size()) * 8.0));
  PrintRunStats("heavy hitters", hh_result, hh_transport);
  PrintRunStats("latencies    ", lat_result, lat_transport);

  if (!hh_result.summary.has_value() || !lat_result.summary.has_value()) {
    std::printf("\nno reports survived; nothing to estimate\n");
    return 0;
  }

  // Degraded-coverage accounting: the merged summary keeps epsilon * n
  // on the received mass; against the full stream the bound widens by
  // the mass of the dead workers (known exactly here).
  const ErrorAccounting accounting =
      AccountErrors(hh_result, kHhEpsilon, stream.size());
  std::printf(
      "\nerror accounting (heavy hitters): received mass %llu, "
      "lost mass %llu%s\n"
      "  bound on received data: +/-%.0f counts; on the full stream: "
      "+/-%.0f counts\n",
      static_cast<unsigned long long>(accounting.n_received),
      static_cast<unsigned long long>(accounting.lost_mass),
      accounting.lost_mass_estimated ? " (estimated)" : "",
      accounting.received_bound, accounting.full_stream_bound);

  std::printf("\nglobal top-5 (guaranteed flags from interval analysis):\n");
  int shown = 0;
  for (const auto& entry : mergeable::TopK(*hh_result.summary, 5)) {
    if (++shown > 5) break;
    std::printf("  item %llu: [%llu, %llu] %s\n",
                static_cast<unsigned long long>(entry.item),
                static_cast<unsigned long long>(entry.lower),
                static_cast<unsigned long long>(entry.upper),
                entry.guaranteed ? "(guaranteed top-5)" : "(candidate)");
  }
  std::printf("\nglobal latency: p50=%.1fms p99=%.1fms over %llu samples\n",
              lat_result.summary->Quantile(0.5),
              lat_result.summary->Quantile(0.99),
              static_cast<unsigned long long>(lat_result.summary->n()));
  return 0;
}
