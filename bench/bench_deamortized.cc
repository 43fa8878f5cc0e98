// Experiment E16 — worst-case update latency of the deamortized
// two-table summary versus classic SpaceSaving (DESIGN.md §14).
//
// Classic SpaceSaving is O(1) amortized but pays occasional O(k)
// structural work at eviction-heavy moments; with k = 1/epsilon = 10^4
// counters that is a visible tail spike. The deamortized summary
// retires the same work in bounded strides (kMaintenanceQuota steps
// inside every update), so its worst observed update should sit within
// a small constant of its median. The stream is the adversarial shape
// for both: a Zipf-skewed base interleaved with bursts of never-seen
// items, which maximizes eviction pressure.
//
// Every update is timed individually (steady_clock around the Update
// call alone); latencies go through a LatencyReservoir, whose max is
// exact — the one statistic this experiment exists to measure. The
// table reports interpolated p50/p99/p999, the exact max, throughput
// of an untimed pass, the drain counters, and the observed error
// against an exact counter (which must stay within epsilon * n).
//
// `--smoke` shrinks the stream so CI can execute every code path in
// about a second.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mergeable/frequency/deamortized_space_saving.h"
#include "mergeable/frequency/exact_counter.h"
#include "mergeable/frequency/space_saving.h"
#include "mergeable/util/check.h"
#include "mergeable/util/latency_reservoir.h"
#include "mergeable/util/random.h"

namespace mergeable::bench {
namespace {

bool g_smoke = false;

constexpr double kEpsilon = 1e-4;
constexpr uint64_t kBurstPhase = 4096;  // Steps per burst phase.

// Bursty Zipf: three phases of skewed base traffic, then one phase of
// fresh items (each occurring a handful of times), repeating.
std::vector<uint64_t> BuildStream(uint64_t updates, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> stream;
  stream.reserve(updates);
  for (uint64_t step = 0; step < updates; ++step) {
    if ((step / kBurstPhase) % 4 == 3) {
      stream.push_back((uint64_t{1} << 32) + (step << 4) +
                       rng.UniformInt(uint64_t{16}));
    } else {
      // Nested uniform draw ~ harmonic weights: item j w.p. ~ 1/(j+1).
      const uint64_t bucket = rng.UniformInt(uint64_t{65536});
      stream.push_back(rng.UniformInt(bucket + 1));
    }
  }
  return stream;
}

struct Measured {
  LatencyReservoir latency{65536, 42};
  double throughput_mps = 0.0;  // Million updates/sec, untimed pass.
  uint64_t swaps = 0;
  uint64_t stalls = 0;
  uint64_t max_error = 0;
  uint64_t n = 0;
};

// Runs timed passes over the stream with fresh instances (timer around
// each Update; best-of-three by observed max, because over millions of
// samples a single scheduler preemption lands somewhere in every pass —
// an algorithmic spike recurs in all three, OS noise does not), then
// one untimed pass with a single timer around the loop (throughput, so
// the per-update clock reads don't tax it).
template <typename MakeFn, typename InspectFn>
Measured Run(const std::vector<uint64_t>& stream,
             const std::map<uint64_t, uint64_t>& truth, MakeFn make,
             InspectFn inspect) {
  using Clock = std::chrono::steady_clock;
  constexpr int kTimedPasses = 3;
  Measured out;
  bool first = true;
  for (int pass = 0; pass < kTimedPasses; ++pass) {
    Measured attempt;
    auto summary = make();
    for (uint64_t item : stream) {
      const auto t0 = Clock::now();
      summary.Update(item);
      const auto t1 = Clock::now();
      attempt.latency.Record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    inspect(summary, attempt);
    if (first || attempt.latency.max() < out.latency.max()) {
      out = std::move(attempt);
      first = false;
    }
  }
  {
    auto summary = make();
    const auto t0 = Clock::now();
    for (uint64_t item : stream) summary.Update(item);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    out.throughput_mps =
        static_cast<double>(stream.size()) / sec / 1e6;
    out.max_error = MaxAbsError(
        truth, [&](uint64_t item) { return summary.Count(item); });
    out.n = summary.n();
  }
  return out;
}

void PrintMeasured(const std::string& name, const Measured& m) {
  PrintRow({name, FormatDouble(m.latency.Percentile(50), 0),
            FormatDouble(m.latency.Percentile(99), 0),
            FormatDouble(m.latency.Percentile(99.9), 0),
            FormatDouble(m.latency.max(), 0),
            FormatDouble(m.throughput_mps, 2), FormatU64(m.max_error),
            FormatU64(m.swaps), FormatU64(m.stalls)});
}

int Main() {
  // Kept short enough that a timed pass runs in well under a second:
  // over longer passes every pass absorbs a scheduler preemption, and
  // the exact max measures the OS rather than the summary. SpaceSaving's
  // structural spike shows up well before the first million updates.
  const uint64_t updates = g_smoke ? 200000 : 1000000;
  const std::vector<uint64_t> stream = BuildStream(updates, 2024);
  const auto truth = TrueCounts(stream);

  std::printf(
      "E16: bursty zipf, %llu updates, eps=%g (k=%d counters); per-update\n"
      "latency in ns (timed pass) and throughput (untimed pass)%s\n",
      static_cast<unsigned long long>(updates), kEpsilon,
      static_cast<int>(1.0 / kEpsilon), g_smoke ? " (smoke)" : "");

  PrintHeader("update latency, " + std::to_string(updates) + " updates",
              {"summary", "p50 ns", "p99 ns", "p999 ns", "max ns", "Mupd/s",
               "max err", "swaps", "stalls"});

  const Measured ss = Run(
      stream, truth, [] { return SpaceSaving::ForEpsilon(kEpsilon); },
      [](SpaceSaving&, Measured&) {});
  PrintMeasured("space_saving", ss);

  const Measured d = Run(
      stream, truth,
      [] { return DeamortizedSpaceSaving::ForEpsilon(kEpsilon); },
      [](DeamortizedSpaceSaving& summary, Measured& out) {
        out.swaps = summary.swaps();
        out.stalls = summary.maintenance_stalls();
      });
  PrintMeasured("deamortized", d);

  // The contracts behind the numbers, enforced so a regression fails
  // the bench rather than silently shipping a worse table.
  const double budget = kEpsilon * static_cast<double>(updates);
  MERGEABLE_CHECK_MSG(static_cast<double>(ss.max_error) <= budget + 1e-9,
                      "SpaceSaving error above epsilon * n");
  MERGEABLE_CHECK_MSG(static_cast<double>(d.max_error) <= budget + 1e-9,
                      "deamortized error above epsilon * n");
  MERGEABLE_CHECK_MSG(d.stalls == 0,
                      "deamortized maintenance must never stall");
  MERGEABLE_CHECK_MSG(d.n == updates && ss.n == updates,
                      "every summary must count the full stream");

  // The headline comparison dashboards ingest from the JSON mirror.
  RecordCounter("ss_max_update_ns", ss.latency.max());
  RecordCounter("d_max_update_ns", d.latency.max());
  RecordCounter("max_latency_ratio_ss_over_d",
                d.latency.max() > 0.0 ? ss.latency.max() / d.latency.max()
                                      : 0.0);
  RecordCounter("throughput_ratio_ss_over_d",
                d.throughput_mps > 0.0 ? ss.throughput_mps / d.throughput_mps
                                       : 0.0);
  RecordCounter("d_swaps", static_cast<double>(d.swaps));
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
  return mergeable::bench::RunAndDump("deamortized", mergeable::bench::Main);
}
