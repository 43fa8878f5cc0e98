// Deterministic chaos/overload harness for the ingest server.
//
// The socket-level sibling of aggregate/fault.h: where FaultPlan plays
// a hostile network for the in-process coordinator, this harness plays
// a hostile *client fleet* against a real listening server — scripted
// traffic spikes, duplicate storms, client-side frame corruption
// (reusing FaultPlan's per-(shard, attempt) decisions, so a script
// replays bit-for-bit), connection churn, and stalled sockets. The
// overload tests drive it against a paused server to build exact queue
// states, then assert the three ISSUE invariants: memory stays inside
// the admission budget, shed load is NACKed (reports before queries),
// and the sealed epoch's epsilon report accounts every shed report's
// mass exactly.
//
// Everything is counted from the client side: DriveChaos knows the mass
// each shard offered and learns from the verdicts which reports landed,
// so `offered_mass - accepted_mass` is the ground-truth lost mass the
// server's degraded-coverage report must reproduce.

#ifndef MERGEABLE_SERVER_CHAOS_H_
#define MERGEABLE_SERVER_CHAOS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mergeable/aggregate/coordinator.h"
#include "mergeable/aggregate/fault.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/core/concepts.h"
#include "mergeable/server/client.h"
#include "mergeable/server/net.h"
#include "mergeable/store/summary_store.h"

namespace mergeable {

// One scripted burst of reports for one epoch.
struct ChaosPhase {
  uint64_t epoch = 0;
  uint64_t shards = 4;            // Shards sending in this phase.
  uint64_t items_per_shard = 64;  // Items each shard feeds its summary.
  uint32_t duplicate_sends = 0;   // Extra verbatim resends per report.
  bool churn = false;             // Reconnect before every shard's send.
  bool disk_full = false;  // Fail durable writes for this phase's seals.
};

struct ChaosScript {
  uint64_t seed = 1;
  // Client-side frame corruption: a shard whose (shard, epoch) decision
  // says truncate/bit-flip first sends a corrupted copy of its frame
  // (the server must reject it), then the clean one.
  FaultSpec faults;
  std::vector<ChaosPhase> phases;
};

struct ChaosOutcome {
  uint64_t reports_offered = 0;   // Distinct (shard, epoch) reports.
  uint64_t reports_accepted = 0;  // Verdict kAccepted / kDuplicate.
  uint64_t reports_lost = 0;      // Rejected or retries exhausted.
  uint64_t offered_mass = 0;      // Sum of every offered report's n.
  uint64_t accepted_mass = 0;     // Sum over accepted reports only.
  uint64_t corrupted_sent = 0;
  uint64_t duplicate_verdicts = 0;
  uint64_t retry_after_nacks = 0;
  uint64_t reconnects = 0;
  uint64_t disk_full_phases = 0;  // Phases driven with disk_full set.
};

// A client that opens a connection and then misbehaves — the two slow
// shapes the server must survive: a stream that stalls mid-frame, and
// a stream that claims an absurd frame length (which the server must
// hang up on rather than buffer for).
class StalledConnection {
 public:
  explicit StalledConnection(uint16_t port);
  bool valid() const { return fd_.valid(); }

  // Writes a length prefix promising `claimed_len` bytes, then `sent`
  // bytes of body, then goes silent. False on transport error.
  bool SendPartial(uint32_t claimed_len, uint32_t sent);

  // True when the peer has closed on us (reads EOF/reset).
  bool PeerClosed();

 private:
  ScopedFd fd_;
};

// Runs `script` against the server at `port`. `fill(epoch, shard,
// items)` builds shard-distinct summary content; mass is read back from
// the summary (types without n() contribute zero mass).
//
// `set_disk_full` (optional) is the backend-fault hook for disk-full
// scripting: invoked with each phase's `disk_full` flag before its
// traffic (typically toggling a FaultFd sticky ENOSPC or
// MemStorage::FailNextWrites on the service's durable storage), so a
// script can carry the server into and back out of disk pressure
// deterministically.
template <WireSummary S, typename FillFn>
ChaosOutcome DriveChaos(uint16_t port, const ChaosScript& script,
                        const BackoffPolicy& policy, FillFn fill,
                        std::function<void(bool)> set_disk_full = {}) {
  ChaosOutcome out;
  const FaultPlan plan(script.faults, script.seed);
  IngestClient client(port);
  for (const ChaosPhase& phase : script.phases) {
    if (set_disk_full) set_disk_full(phase.disk_full);
    if (phase.disk_full) ++out.disk_full_phases;
    for (uint64_t shard = 0; shard < phase.shards; ++shard) {
      if (phase.churn) client.Reconnect();

      const S summary = fill(phase.epoch, shard, phase.items_per_shard);
      uint64_t mass = 0;
      if constexpr (requires { summary.n(); }) mass = summary.n();

      WireReport report;
      report.shard_id = shard;
      report.epoch = phase.epoch;
      report.payload = EncodeSummary(summary);
      ++out.reports_offered;
      out.offered_mass += mass;

      // Scripted corruption: lead with a damaged copy of the report
      // frame (a one-record BAT1) so the server's reject path runs under
      // load, deterministically.
      const FaultDecision decision =
          plan.Decide(shard, static_cast<uint32_t>(phase.epoch));
      if (decision.truncate || decision.bit_flip) {
        std::vector<uint8_t> corrupt = EncodeBatchFrame({{report}});
        if (decision.truncate) {
          ApplyTruncate(corrupt, decision.mutation_seed);
        } else {
          ApplyBitFlip(corrupt, decision.mutation_seed);
        }
        ++out.corrupted_sent;
        if (client.SendFrame(corrupt)) (void)client.ReadFrame();
      }

      const SendStatus status = client.SendBatch({report}, policy).status;
      if (status == SendStatus::kAccepted) {
        ++out.reports_accepted;
        out.accepted_mass += mass;
      } else {
        ++out.reports_lost;
      }

      // A duplicate storm: verbatim resends the server must absorb
      // without recording anything twice.
      for (uint32_t dup = 0; dup < phase.duplicate_sends; ++dup) {
        (void)client.SendBatch({report}, policy);
      }
    }
  }
  const ClientStats& stats = client.stats();
  out.duplicate_verdicts = stats.duplicates;
  out.retry_after_nacks = stats.retry_after_nacks;
  out.reconnects = stats.reconnects;
  return out;
}

}  // namespace mergeable

#endif  // MERGEABLE_SERVER_CHAOS_H_
