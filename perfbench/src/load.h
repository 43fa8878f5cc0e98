// The load one run drives against the stack: open-loop ingest
// connections, the sealer and open-loop query connections. It keeps
// the measured phase's samples and the process state at its edges.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/client.h"
#include "mergeable/util/random.h"
#include "workload.h"

namespace perfbench {

// Ingest may run at most this many epochs ahead of the sealed
// frontier, which bounds pending state and the dedup window.
constexpr uint64_t kSealLag = 3;

// Cumulative layer counters, read at the edges of the measured phase.
struct LayerSnapshot {
  uint64_t nodes_built = 0;
  uint64_t epochs_sealed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t queries_window = 0;
  uint64_t queries_window_ring = 0;
};

// One kept answer, for the checks after the run.
struct QuerySample {
  uint64_t t1 = 0;
  uint64_t t2 = 0;
  uint64_t n_received = 0;
  double epsilon = 0.0;
  std::vector<uint8_t> payload;  // Tagged summary payload.
};

// Lifetime: `spec` and `inputs` must outlive the Load, and the server
// on `port` must serve until Run() returns.
class Load {
 public:
  // Per load connection.
  struct Gen {
    uint64_t offered = 0;
    uint64_t accepted = 0;
    uint64_t failed = 0;
    uint64_t accepted_in_window = 0;
    std::vector<double> report_us;  // Sampled, in window.
    std::vector<double> fill_us;    // Sampled, in window.
    std::vector<double> late_us;    // Open-loop schedule slip, in window.
    mergeable::ClientStats client;
  };

  // Per query connection.
  struct QueryConn {
    std::vector<double> query_us;  // From scheduled send, in window.
    std::vector<double> late_us;   // Schedule slip, in window.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<QuerySample> samples;
    mergeable::ClientStats client;
  };

  // Process state at the start and end of the measured phase.
  struct Mark {
    int64_t ns = 0;
    double process_cpu = 0.0;
    std::vector<double> load_cpu;  // Per load thread.
    std::map<int, uint64_t> task_ticks;
    std::pair<uint64_t, uint64_t> steal;
    LayerSnapshot layers;
  };

  // The calls into the program that do not go over the wire.
  struct Hooks {
    std::function<bool(uint64_t epoch, uint64_t offered_n)> seal;
    std::function<LayerSnapshot()> snapshot;
  };

  Load(const WorkloadSpec& spec, uint64_t seed, const Inputs& inputs,
       uint16_t port, uint64_t first_epoch, Hooks hooks)
      : spec_(spec), seed_(seed), inputs_(inputs), port_(port),
        first_epoch_(first_epoch), hooks_(std::move(hooks)),
        connections_(spec.ingest_connections),
        done_through_(connections_, first_epoch),
        sealed_next_(first_epoch) {
    gen_.resize(connections_);
    queriers_.resize(spec.query_connections);
  }

  // Runs warm-up, then the measured phase of `seconds`, then drains.
  void Run(double seconds);

  const Mark& begin() const { return begin_; }
  const Mark& end() const { return end_; }
  double window_s() const {
    return static_cast<double>(end_.ns - begin_.ns) / 1e9;
  }

  // Results, read after Run().
  uint64_t reports_offered() const { return Sum(&Gen::offered); }
  uint64_t reports_accepted() const { return Sum(&Gen::accepted); }
  uint64_t reports_failed() const { return Sum(&Gen::failed); }
  uint64_t reports_accepted_in_window() const {
    return Sum(&Gen::accepted_in_window);
  }
  std::vector<double> Gather(std::vector<double> Gen::*field) const {
    return GatherFrom(gen_, field);
  }
  std::vector<double> Gather(std::vector<double> QueryConn::*field) const {
    return GatherFrom(queriers_, field);
  }
  uint64_t queries_attempted() const {
    uint64_t total = 0;
    for (const QueryConn& conn : queriers_) total += conn.attempted;
    return total;
  }
  uint64_t queries_failed() const {
    uint64_t total = 0;
    for (const QueryConn& conn : queriers_) total += conn.failed;
    return total;
  }
  std::vector<QuerySample> TakeQuerySamples() {
    std::vector<QuerySample> all;
    for (QueryConn& conn : queriers_) {
      for (QuerySample& sample : conn.samples) all.push_back(std::move(sample));
    }
    return all;
  }
  mergeable::ClientStats client_stats() const {
    mergeable::ClientStats total;
    for (const Gen& gen : gen_) {
      total.retries += gen.client.retries;
      total.retry_after_nacks += gen.client.retry_after_nacks;
    }
    for (const QueryConn& conn : queriers_) {
      total.retries += conn.client.retries;
      total.retry_after_nacks += conn.client.retry_after_nacks;
    }
    return total;
  }
  uint64_t sealed_next() const { return sealed_next_; }

  std::vector<double> seal_ms;    // In window.
  uint64_t seals = 0;
  uint64_t seal_failures = 0;

 private:
  bool measuring() const {
    return phase_.load(std::memory_order_acquire) == 1;
  }
  bool stopping() const {
    return phase_.load(std::memory_order_acquire) == 2;
  }

  template <typename T>
  static std::vector<double> GatherFrom(const std::vector<T>& from,
                                        std::vector<double> T::*field) {
    std::vector<double> all;
    for (const T& item : from) {
      all.insert(all.end(), (item.*field).begin(), (item.*field).end());
    }
    return all;
  }

  uint64_t Sum(uint64_t Gen::*field) const {
    uint64_t total = 0;
    for (const Gen& gen : gen_) total += gen.*field;
    return total;
  }

  Mark TakeMark(std::vector<std::thread>& load_threads);

  // Blocks until epoch `epoch` may be generated; false when stopping.
  bool AwaitSealFrontier(uint64_t epoch);

  void MarkDone(uint32_t connection, uint64_t through);

  // Flushes the client's buffer and settles every buffered report: a
  // report's latency runs from its burst's scheduled time (`due_ns`) to
  // the batch verdict; its fill time from when it was buffered to the
  // flush. Epochs before `complete_through` are then fully accepted on
  // this connection.
  void FlushBatch(mergeable::IngestClient& client, Gen& gen, uint64_t key,
                  int64_t due_ns, std::vector<int64_t>& entries,
                  uint32_t connection, uint64_t complete_through);

  mergeable::WireReport MakeReport(uint64_t epoch, uint64_t shard) const;

  // One open-loop ingest connection: bursts of reports on a fixed
  // schedule, each burst flushed as one BAT1 batch. The connection owns
  // a contiguous slice of every epoch's shards and walks it epoch by
  // epoch, so an epoch is complete once every connection has had its
  // slice accepted.
  void Generator(uint32_t c);

  uint64_t sealed_next_snapshot();

  mergeable::WireQuery MakeQuery(mergeable::Rng& rng, uint64_t hi) const;

  // One of the open-loop query connections; each runs its own schedule
  // at an equal share of the rate, offset so sends interleave.
  void Querier(uint32_t q);

  // Seals each epoch as soon as every connection has had all of its
  // reports for that epoch accepted.
  void Sealer();

  uint64_t MinDoneLocked() const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const Inputs& inputs_;
  const uint16_t port_;
  const uint64_t first_epoch_;
  Hooks hooks_;
  const uint32_t connections_;

  std::atomic<int> phase_{0};  // 0 warm-up, 1 measured, 2 stopping.
  Mark begin_;
  Mark end_;
  std::vector<Gen> gen_;
  std::vector<QueryConn> queriers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> done_through_;  // Per connection: epochs < this
                                        // have every report accepted.
  uint64_t sealed_next_;                // Epochs < this are sealed.
  bool sealer_stop_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
