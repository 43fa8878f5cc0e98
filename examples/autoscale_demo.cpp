// A live autoscale arc over real sockets: N -> 2N -> N shards against
// the same ingest service stack, driven by a RebalanceController.
//
// The demo scripts three phases on one TCP connection:
//
//   epochs 0-1:  2 shards report
//   epochs 2-3:  doubled — 4 shards report (TOP1 split announcement)
//   epochs 4-5:  halved back — 2 shards report (TOP1 join announcement)
//
// Both topology steps are announced through the wire *before* their
// effective epoch; the coordinator re-denominates per-epoch coverage
// and every epoch seals with zero lost mass. After the arc, per-epoch
// and whole-range queries are checked: accepted mass equals offered
// mass to the byte, and every hot item's estimate stays within the
// answer's own (widened, when applicable) error bound. Exits nonzero
// on any violation — autoscale_demo.sh relies on that.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <map>
#include <string>
#include <vector>

#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/elastic/rebalance.h"
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
using mergeable::ControlCode;
using mergeable::DecodeControlFrame;
using mergeable::DecodeTaggedPayload;
using mergeable::DurableStore;
using mergeable::DurableStoreOptions;
using mergeable::EncodeSummary;
using mergeable::EpochService;
using mergeable::EpochServiceConfig;
using mergeable::IngestClient;
using mergeable::IngestServer;
using mergeable::MemStorage;
using mergeable::RebalanceController;
using mergeable::Rng;
using mergeable::SendStatus;
using mergeable::ServerConfig;
using mergeable::SpaceSaving;
using mergeable::WireQuery;
using mergeable::WireReport;

constexpr uint64_t kStream = 1;
constexpr uint64_t kBaseShards = 2;
constexpr uint64_t kEpochs = 6;
constexpr double kEpsilon = 0.01;
constexpr int kUpdatesPerShard = 2000;

// Shard `shard` of `shards` reports the items it owns: item % shards
// == shard — the routing the TOP1 split/join recipes preserve.
SpaceSaving ShardSummary(uint64_t epoch, uint64_t shard, uint64_t shards,
                         std::map<uint64_t, uint64_t>* exact) {
  SpaceSaving summary = SpaceSaving::ForEpsilon(kEpsilon);
  Rng rng(1000 * epoch + shard);
  for (int i = 0; i < kUpdatesPerShard; ++i) {
    const uint64_t base = rng.Bernoulli(0.5) ? rng.UniformInt(6)
                                             : rng.UniformInt(5000);
    const uint64_t item = base * shards + shard;
    summary.Update(item);
    ++(*exact)[item];
  }
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

bool Fail(const char* what) {
  std::fprintf(stderr, "FAILED: %s\n", what);
  return false;
}

bool RunArc() {
  MemStorage storage;
  DurableStoreOptions store_options;
  store_options.store.epsilon = kEpsilon;
  DurableStore<SpaceSaving> store(&storage, store_options);
  EpochServiceConfig config;
  config.stream = kStream;
  config.shards_per_epoch = kBaseShards;
  EpochService<SpaceSaving> service(&store, config);
  IngestServer server(&service, ServerConfig{});
  if (!server.Start()) return Fail("server start");
  IngestClient client(server.port());
  if (!client.connected()) return Fail("client connect");
  // The ephemeral port goes to stderr so stdout stays byte-identical
  // across runs.
  std::fprintf(stderr, "ingest service on 127.0.0.1:%u\n", server.port());

  // The scripted arc: double at epoch 2, halve back at epoch 4.
  RebalanceController controller(kBaseShards);
  controller.AddStep(/*effective_epoch=*/2, /*shard_count=*/4);
  controller.AddStep(/*effective_epoch=*/4, /*shard_count=*/2);

  std::vector<uint64_t> offered(kEpochs, 0);
  std::vector<std::map<uint64_t, uint64_t>> exact(kEpochs);
  size_t next_step = 0;
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (next_step < controller.steps().size() &&
        controller.steps()[next_step].effective_epoch == epoch) {
      // Announce the step on the same connection the reports use.
      if (!client.SendFrame(controller.EncodeStep(next_step))) {
        return Fail("topology send");
      }
      const auto response = client.ReadFrame();
      const auto verdict =
          response.has_value() ? DecodeControlFrame(*response)
                               : std::nullopt;
      if (!verdict.has_value() || verdict->code != ControlCode::kAccepted) {
        return Fail("topology not accepted");
      }
      const auto plan = controller.PlanStep(next_step);
      std::printf("topology: epoch %llu -> %llu shards (%s)\n",
                  static_cast<unsigned long long>(verdict->epoch),
                  static_cast<unsigned long long>(verdict->shard_id),
                  plan.ops.empty() ? "no recipe"
                  : plan.ops[0].kind == mergeable::TopologyOpKind::kSplit
                      ? "split recipe"
                      : "join recipe");
      ++next_step;
    }
    const uint64_t shards = controller.ShardsForEpoch(epoch);
    if (service.shards_for_epoch(epoch) != shards) {
      return Fail("controller/coordinator disagree on shard count");
    }
    for (uint64_t shard = 0; shard < shards; ++shard) {
      const SpaceSaving summary =
          ShardSummary(epoch, shard, shards, &exact[epoch]);
      offered[epoch] += summary.n();
      WireReport report;
      report.shard_id = shard;
      report.epoch = epoch;
      report.payload = EncodeSummary(summary);
      if (client.SendBatch({report}, RetryPolicy()).status !=
          SendStatus::kAccepted) {
        return Fail("report not accepted");
      }
    }
    server.Drain();
    if (!service.SealEpoch(epoch, offered[epoch])) return Fail("seal");
    std::printf("sealed epoch %llu: %llu shards, offered %llu\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(shards),
                static_cast<unsigned long long>(offered[epoch]));
  }

  // Per-epoch accounting: accepted mass == offered mass, no loss, and
  // every item's estimate within the answer's own bound.
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    WireQuery query;
    query.stream = kStream;
    query.t1 = epoch;
    query.t2 = epoch;
    const auto answer = client.Query(query);
    if (!answer.has_value()) return Fail("epoch query");
    if (answer->n_received != offered[epoch]) {
      return Fail("accepted mass != offered mass");
    }
    if (answer->lost_mass != 0) return Fail("unexpected lost mass");
    const auto tagged = DecodeTaggedPayload(answer->payload);
    if (!tagged.has_value()) return Fail("answer payload");
    ByteReader reader(tagged->payload);
    const auto merged = SpaceSaving::DecodeFrom(reader);
    if (!merged.has_value()) return Fail("answer summary");
    // The served bound: received_bound covers the received mass.
    uint64_t worst = 0;
    for (const auto& [item, count] : exact[epoch]) {
      const uint64_t upper = merged->UpperEstimate(item);
      const uint64_t lower = merged->LowerEstimate(item);
      if (lower > count || upper < count) return Fail("bracket broken");
      worst = std::max(worst, upper - count);
    }
    if (static_cast<double>(worst) > answer->received_bound + 1e-9) {
      return Fail("estimate outside served error bound");
    }
    std::printf(
        "epoch %llu ok: n=%llu lost=0 worst_over=%llu bound=%.1f\n",
        static_cast<unsigned long long>(epoch),
        static_cast<unsigned long long>(answer->n_received),
        static_cast<unsigned long long>(worst), answer->received_bound);
  }

  // The whole-arc range: mass accounted across all three topologies.
  WireQuery range;
  range.stream = kStream;
  range.t1 = 0;
  range.t2 = kEpochs - 1;
  const auto answer = client.Query(range);
  if (!answer.has_value()) return Fail("range query");
  uint64_t total = 0;
  for (const uint64_t mass : offered) total += mass;
  if (answer->n_received != total) return Fail("range mass mismatch");
  if (answer->lost_mass != 0) return Fail("range lost mass");
  std::printf("range [0,%llu] ok: n=%llu bound=%.1f (eps widened %.2fx)\n",
              static_cast<unsigned long long>(kEpochs - 1),
              static_cast<unsigned long long>(answer->n_received),
              answer->received_bound,
              answer->received_bound /
                  (kEpsilon * static_cast<double>(total)));

  server.Stop();
  std::printf("ARC OK: %llu epochs across 2 -> 4 -> 2 shards, "
              "0 bytes lost\n",
              static_cast<unsigned long long>(kEpochs));
  return true;
}

}  // namespace

int main() { return RunArc() ? 0 : 1; }
