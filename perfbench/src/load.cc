#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "host.h"
#include "mergeable/util/check.h"
#include "trace.h"
#include "traced_layers.h"

namespace perfbench {

using namespace mergeable;

namespace {

// One answered query in this many is kept for the estimate checks.
constexpr uint64_t kQueryCheckStride = 4;
// Load before the measured phase, left out of every metric.
constexpr double kWarmupSeconds = 2.0;

BackoffPolicy LoadPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ms = 1;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 16;
  return policy;
}

BatchOptions ManualFlushOptions() {
  BatchOptions options;
  options.max_reports = 1u << 30;  // The generator flushes explicitly.
  options.max_bytes = size_t{1} << 40;
  options.flush_deadline_ms = 0;
  return options;
}

}  // namespace

void Load::Run(double seconds) {
  // Room for every sample the measured phase can take, so the sample
  // buffers never reallocate: their pages are touched only as they
  // fill, and the process's peak RSS stays the program's.
  const double bursts = spec_.bursts_per_sec * seconds * 1.25;
  const uint32_t burst_max =
      spec_.max_burst > 0 ? spec_.max_burst : spec_.batch_reports;
  for (Gen& gen : gen_) {
    const auto reports = static_cast<size_t>(bursts * burst_max /
                                             spec_.latency_stride);
    gen.report_us.reserve(reports);
    gen.fill_us.reserve(reports);
    gen.late_us.reserve(static_cast<size_t>(bursts));
  }
  for (QueryConn& conn : queriers_) {
    const auto queries = static_cast<size_t>(
        spec_.query_rate / spec_.query_connections * seconds * 1.25);
    conn.query_us.reserve(queries);
    conn.late_us.reserve(queries);
  }
  std::vector<std::thread> load_threads;
  for (uint32_t c = 0; c < connections_; ++c) {
    load_threads.emplace_back([this, c] { Generator(c); });
  }
  for (uint32_t q = 0; q < spec_.query_connections; ++q) {
    load_threads.emplace_back([this, q] { Querier(q); });
  }
  std::thread sealer([this] { Sealer(); });

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  begin_ = TakeMark(load_threads);
  phase_.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  phase_.store(2, std::memory_order_release);
  end_ = TakeMark(load_threads);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
  for (std::thread& thread : load_threads) thread.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    sealer_stop_ = true;
    cv_.notify_all();
  }
  sealer.join();
}

Load::Mark Load::TakeMark(std::vector<std::thread>& load_threads) {
  Mark mark;
  mark.ns = NowNs();
  mark.process_cpu = ProcessCpuSeconds();
  for (std::thread& thread : load_threads) {
    mark.load_cpu.push_back(ThreadCpuSeconds(thread.native_handle()));
  }
  mark.task_ticks = TaskTicks();
  mark.steal = StealJiffies();
  mark.layers = hooks_.snapshot();
  return mark;
}

bool Load::AwaitSealFrontier(uint64_t epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return epoch < sealed_next_ + kSealLag || stopping();
  });
  return !stopping();
}

void Load::MarkDone(uint32_t connection, uint64_t through) {
  std::lock_guard<std::mutex> lock(mu_);
  done_through_[connection] = through;
  cv_.notify_all();
}

void Load::FlushBatch(IngestClient& client, Gen& gen, uint64_t key,
                      int64_t due_ns, std::vector<int64_t>& entries,
                      uint32_t connection, uint64_t complete_through) {
  const size_t count = client.buffered_reports();
  const int64_t start = NowNs();
  BatchOutcome outcome;
  {
    ScopedSpan span(SpanKind::kClientFlush, key, count);
    outcome = client.Flush(LoadPolicy());
  }
  const int64_t done = NowNs();
  gen.accepted += outcome.accepted;
  gen.failed += outcome.rejected + outcome.exhausted;
  if (measuring()) {
    gen.accepted_in_window += outcome.accepted;
    for (const int64_t entry : entries) {
      gen.report_us.push_back(static_cast<double>(done - due_ns) / 1e3);
      gen.fill_us.push_back(static_cast<double>(start - entry) / 1e3);
    }
  }
  entries.clear();
  MarkDone(connection, complete_through);
}

WireReport Load::MakeReport(uint64_t epoch, uint64_t shard) const {
  WireReport report;
  report.shard_id = shard;
  report.epoch = epoch;
  report.payload = inputs_.pool[PayloadFor(inputs_, seed_, epoch, shard)];
  return report;
}

void Load::Generator(uint32_t c) {
  Gen& gen = gen_[c];
  IngestClient client(port_);
  MERGEABLE_CHECK_MSG(client.connected(), "generator failed to connect");
  client.set_batch_options(ManualFlushOptions());
  const BackoffPolicy policy = LoadPolicy();
  const uint64_t lo = spec_.shards_per_epoch * c / connections_;
  const uint64_t hi = spec_.shards_per_epoch * (c + 1) / connections_;
  // Every connection draws the same burst sizes, so their walks over
  // the epochs stay in step and no connection waits for another.
  Rng burst_rng(Mix(seed_, 10));
  const ZipfDistribution burst_zipf(std::max<uint32_t>(spec_.max_burst, 1),
                                    0.9);
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / spec_.bursts_per_sec));
  auto due = std::chrono::steady_clock::now() + interval * c / connections_;
  std::vector<int64_t> entries;
  uint64_t epoch = first_epoch_;
  uint64_t shard = lo;
  uint64_t seq = 0;
  for (; !stopping(); due += interval) {
    const uint64_t burst = spec_.max_burst > 0
                               ? burst_zipf.Sample(burst_rng) + 1
                               : spec_.batch_reports;
    std::this_thread::sleep_until(due);
    const auto sent = std::chrono::steady_clock::now();
    if (measuring()) {
      gen.late_us.push_back(
          std::chrono::duration<double, std::micro>(sent - due).count());
    }
    const uint64_t key = BatchKey(shard, epoch);
    for (uint64_t i = 0; i < burst; ++i) {
      if (shard == lo && !AwaitSealFrontier(epoch)) break;
      if (seq++ % spec_.latency_stride == 0) entries.push_back(NowNs());
      client.BufferReport(MakeReport(epoch, shard), policy);
      ++gen.offered;
      if (++shard == hi) {
        shard = lo;
        ++epoch;
      }
    }
    if (client.buffered_reports() > 0) {
      const int64_t due_ns = std::chrono::duration_cast<
          std::chrono::nanoseconds>(due.time_since_epoch()).count();
      FlushBatch(client, gen, key, due_ns, entries, c, epoch);
    }
  }
  gen.client = client.stats();
}

uint64_t Load::sealed_next_snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_next_;
}

WireQuery Load::MakeQuery(Rng& rng, uint64_t hi) const {
  WireQuery query;
  query.stream = kStream;
  const uint64_t count = hi + 1;  // The history starts at epoch 0.
  const uint64_t kind = rng.UniformInt(100);
  if (kind < 30 && spec_.window_capacity > 0) {
    // Last-w window, served by the resident ring when it can.
    const uint64_t windows[] = {spec_.window_capacity / 16,
                                spec_.window_capacity / 4,
                                spec_.window_capacity};
    query.window = std::max<uint64_t>(1, windows[rng.UniformInt(3)]);
    return query;
  }
  if (kind < 40) {
    query.t1 = 0;  // Full history.
    query.t2 = hi;
    return query;
  }
  // Short ranges, geometric in length (mean 16), half of them among
  // the most recent epochs and half anywhere in the history.
  uint64_t length = 1 + static_cast<uint64_t>(
                            -16.0 * std::log(1.0 - rng.UniformDouble()));
  length = std::min(length, count);
  const uint64_t starts = count - length + 1;
  const uint64_t span =
      rng.UniformInt(2) == 0 ? std::min<uint64_t>(starts, 1024) : starts;
  query.t1 = hi - length + 1 - rng.UniformInt(span);
  query.t2 = query.t1 + length - 1;
  return query;
}

void Load::Querier(uint32_t q) {
  QueryConn& conn = queriers_[q];
  IngestClient client(port_);
  MERGEABLE_CHECK_MSG(client.connected(), "querier failed to connect");
  Rng rng(Mix(seed_, 20 + q));
  const double period_s = spec_.query_connections / spec_.query_rate;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(period_s));
  auto due = std::chrono::steady_clock::now() +
             interval * q / spec_.query_connections;
  for (uint64_t k = 0; !stopping(); ++k, due += interval) {
    std::this_thread::sleep_until(due);
    const auto sent = std::chrono::steady_clock::now();
    WireQuery query = MakeQuery(rng, sealed_next_snapshot() - 1);
    // The id rides in the deadline field, far above any budget the
    // query could spend (the service charges no cost per node), so
    // it never binds; the traced handler reads it to pair spans.
    const uint64_t id = QueryKey(q, k);
    query.deadline_ms = id;
    std::optional<WireAnswer> answer;
    {
      ScopedSpan span(SpanKind::kClientQuery, id);
      answer = client.Query(query);
    }
    const auto done = std::chrono::steady_clock::now();
    ++conn.attempted;
    const bool ok = answer.has_value() &&
                    answer->status == AnswerStatus::kOk && !answer->partial;
    if (!ok) {
      ++conn.failed;
      continue;
    }
    if (measuring()) {
      conn.query_us.push_back(
          std::chrono::duration<double, std::micro>(done - due).count());
      conn.late_us.push_back(
          std::chrono::duration<double, std::micro>(sent - due).count());
    }
    if (k % kQueryCheckStride == 0) {
      conn.samples.push_back(QuerySample{answer->t1, answer->t2,
                                         answer->n_received,
                                         answer->epsilon,
                                         std::move(answer->payload)});
    }
  }
  conn.client = client.stats();
}

void Load::Sealer() {
  const uint64_t offered = spec_.shards_per_epoch * spec_.items_per_report;
  uint64_t next = first_epoch_;
  for (;;) {
    uint64_t ready = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return MinDoneLocked() > next || sealer_stop_; });
      ready = MinDoneLocked();
      if (ready <= next) break;
    }
    for (; next < ready; ++next) {
      const int64_t start = NowNs();
      bool ok = false;
      {
        ScopedSpan span(SpanKind::kServiceSeal, next);
        ok = hooks_.seal(next, offered);
      }
      const int64_t done = NowNs();
      ++seals;
      if (!ok) ++seal_failures;
      if (measuring()) {
        seal_ms.push_back(static_cast<double>(done - start) / 1e6);
      }
      std::lock_guard<std::mutex> lock(mu_);
      sealed_next_ = next + 1;
      cv_.notify_all();
    }
  }
}

uint64_t Load::MinDoneLocked() const {
  return *std::min_element(done_through_.begin(), done_through_.end());
}

}  // namespace perfbench
