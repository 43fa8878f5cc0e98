// What a run generates from its seed: the summary families, the payload
// pool and the (epoch, shard) -> payload map, with the exact counts of
// the tracked items that the correctness checks compare answers with.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mergeable/frequency/space_saving.h"
#include "mergeable/sketch/count_min.h"
#include "mergeable/store/summary_store.h"
#include "mergeable/stream/zipf.h"
#include "mergeable/util/random.h"
#include "workload.h"

namespace perfbench {

constexpr uint64_t kStream = 1;
// Items whose exact counts the generator keeps, to check estimates.
constexpr size_t kTracked = 12;
// Skew of the items inside every summary.
constexpr double kItemAlpha = 1.1;

inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ull);
  mergeable::SplitMix64(state);
  return mergeable::SplitMix64(state);
}

// Per summary type: how to make an empty one, its error parameter, the
// estimate the checks read, and the share of estimates its guarantee
// lets exceed f + eps * n.
template <typename S>
struct Family;

template <>
struct Family<mergeable::SpaceSaving> {
  static mergeable::SpaceSaving Make(const WorkloadSpec& spec, uint64_t) {
    return mergeable::SpaceSaving::ForEpsilon(spec.ss_epsilon);
  }
  static double Epsilon(const WorkloadSpec& spec) { return spec.ss_epsilon; }
  static uint64_t Estimate(const mergeable::SpaceSaving& s, uint64_t item) {
    return s.UpperEstimate(item);
  }
  // Share of estimates allowed above f + eps * n: none.
  static double Delta(const WorkloadSpec&) { return 0.0; }
};

template <>
struct Family<mergeable::CountMinSketch> {
  static mergeable::CountMinSketch Make(const WorkloadSpec& spec,
                                        uint64_t seed) {
    return mergeable::CountMinSketch(spec.cm_depth, spec.cm_width,
                                     Mix(seed, 0xc0));
  }
  static double Epsilon(const WorkloadSpec& spec) {
    return std::exp(1.0) / spec.cm_width;
  }
  static uint64_t Estimate(const mergeable::CountMinSketch& s, uint64_t item) {
    return s.Estimate(item);
  }
  // Count-Min meets f + eps * n for each item with probability at least
  // 1 - exp(-depth) over its hash functions.
  static double Delta(const WorkloadSpec& spec) {
    return std::exp(-static_cast<double>(spec.cm_depth));
  }
};

// Exact counts of the tracked items.
using Counts = std::array<uint64_t, kTracked>;

// The seed's item and payload distributions, tracked items and pool.
struct Inputs {
  Inputs(const WorkloadSpec& spec, uint64_t seed)
      : item_zipf(spec.universe, kItemAlpha),
        pool_zipf(spec.payload_pool, 1.0) {
    // Tracked items: the heaviest ranks and a few seeded random ones.
    mergeable::Rng rng(Mix(seed, 1));
    for (size_t i = 0; i < kTracked; ++i) {
      if (i < kTracked / 2) {
        tracked[i] = i;
        continue;
      }
      do {
        tracked[i] = rng.UniformInt(spec.universe);
      } while (TrackedIndex(tracked[i]) < i);
    }
  }

  // Index into `tracked`, or kTracked.
  size_t TrackedIndex(uint64_t item) const {
    for (size_t i = 0; i < kTracked; ++i) {
      if (tracked[i] == item) return i;
    }
    return kTracked;
  }

  mergeable::ZipfDistribution item_zipf;
  mergeable::ZipfDistribution pool_zipf;
  Counts tracked{};
  std::vector<std::vector<uint8_t>> pool;  // Encoded report payloads.
  std::vector<Counts> pool_counts;         // Tracked counts per payload.
};

// Builds one summary of `items` Zipf items, counting tracked items.
template <typename S>
S MakeSummary(const WorkloadSpec& spec, uint64_t seed, const Inputs& inputs,
              mergeable::Rng& rng, uint32_t items, Counts* counts) {
  S summary = Family<S>::Make(spec, seed);
  counts->fill(0);
  for (uint32_t i = 0; i < items; ++i) {
    const uint64_t item = inputs.item_zipf.Sample(rng);
    summary.Update(item);
    const size_t t = inputs.TrackedIndex(item);
    if (t < kTracked) ++(*counts)[t];
  }
  return summary;
}

template <typename S>
void BuildPool(const WorkloadSpec& spec, uint64_t seed, Inputs* inputs) {
  mergeable::Rng rng(Mix(seed, 2));
  for (uint32_t p = 0; p < spec.payload_pool; ++p) {
    Counts counts;
    const S summary = MakeSummary<S>(spec, seed, *inputs, rng,
                                     spec.items_per_report, &counts);
    inputs->pool.push_back(mergeable::EncodeSummary(summary));
    inputs->pool_counts.push_back(counts);
  }
}

// The pool payload report (epoch, shard) carries.
inline uint32_t PayloadFor(const Inputs& inputs, uint64_t seed,
                           uint64_t epoch, uint64_t shard) {
  mergeable::Rng rng(Mix(Mix(seed, 3) ^ epoch, shard));
  return static_cast<uint32_t>(inputs.pool_zipf.Sample(rng));
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
