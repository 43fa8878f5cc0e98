#include "workload.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <type_traits>
#include <vector>

#include "host.h"
#include "inputs.h"
#include "load.h"
#include "mergeable/aggregate/file_storage.h"
#include "mergeable/aggregate/storage.h"
#include "mergeable/aggregate/wire.h"
#include "mergeable/server/client.h"
#include "mergeable/server/epoch_service.h"
#include "mergeable/server/sharded_server.h"
#include "mergeable/store/durable_store.h"
#include "mergeable/util/check.h"
#include "stats.h"
#include "trace.h"
#include "traced_layers.h"

namespace perfbench {
namespace {

using namespace mergeable;
namespace fs = std::filesystem;

// clang-format off
const WorkloadSpec kWorkloads[] = {
    // Per-report overhead: thousands of tiny SpaceSaving reports per
    // epoch in Zipf-sized bursts from two connections, light queries.
    {.name = "ingest_small",
     .ss_epsilon = 0.5, .universe = 4096,
     .shards_per_epoch = 8192, .items_per_report = 8, .payload_pool = 32,
     .ingest_connections = 2, .bursts_per_sec = 500.0, .max_burst = 256,
     .history_epochs = 4096, .history_items_per_epoch = 4096,
     .workers_per_shard = 1,
     .cache_capacity = 256, .window_capacity = 64,
     .query_rate = 200.0, .query_connections = 2, .latency_stride = 8,
     .setup_repeats = 7},
    // Seal and storage: a few dozen large Count-Min reports per epoch.
    {.name = "seal_large",
     .count_min = true, .cm_depth = 4, .cm_width = 2048,
     .universe = 1 << 16,
     .shards_per_epoch = 32, .items_per_report = 4096, .payload_pool = 16,
     .ingest_connections = 1, .bursts_per_sec = 50.0, .batch_reports = 8,
     .history_epochs = 128, .history_items_per_epoch = 65536,
     .workers_per_shard = 1,
     .cache_capacity = 64, .window_capacity = 16,
     .query_rate = 100.0, .query_connections = 2, .latency_stride = 1,
     .setup_repeats = 7},
    // Reads beside writes: a long SpaceSaving history, an open-loop
    // query stream and one ingest connection sending an epoch a batch.
    {.name = "query_mixed",
     .ss_epsilon = 0.01, .universe = 1 << 16,
     .shards_per_epoch = 32, .items_per_report = 64, .payload_pool = 32,
     .ingest_connections = 1, .bursts_per_sec = 50.0, .batch_reports = 32,
     .history_epochs = 20000, .history_items_per_epoch = 512,
     .workers_per_shard = 2,
     .cache_capacity = 1024, .window_capacity = 64,
     .query_rate = 1000.0, .query_connections = 4, .latency_stride = 1,
     .setup_repeats = 3},
};
// clang-format on

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- Minimal JSON output ----

class Json {
 public:
  Json& Num(const std::string& key, double value) {
    std::ostringstream out;
    if (std::isfinite(value)) {
      out.precision(12);
      out << value;
    } else {
      out << "null";
    }
    return Raw(key, out.str());
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

DurableStoreOptions StoreOptionsFor(const WorkloadSpec& spec, double eps) {
  DurableStoreOptions options;
  options.prefix = "durable";
  options.store.prefix = "store";
  options.store.cache_capacity = spec.cache_capacity;
  options.store.epsilon = eps;
  options.store.num_threads = 1;
  return options;
}

// ---- Durable history (written by a child process) ----

struct HistoryEpoch {
  uint64_t n = 0;
  Counts counts{};
};

// Seals the history into an in-memory store, then writes its files
// under `root` and fsyncs them once: generation is not measured, so it
// need not pay an fsync per record. FileStorage reads the same layout.
template <typename S>
bool WriteHistory(const WorkloadSpec& spec, uint64_t seed,
                  const Inputs& inputs, const std::string& root,
                  const std::string& table_path) {
  MemStorage mem;
  DurableStore<S> store(&mem, StoreOptionsFor(spec, Family<S>::Epsilon(spec)));
  store.Open();
  Rng rng(Mix(seed, 4));
  std::vector<HistoryEpoch> table(spec.history_epochs);
  for (uint64_t e = 0; e < spec.history_epochs; ++e) {
    AggregationResult<S> result;
    result.summary = MakeSummary<S>(spec, seed, inputs, rng,
                                    spec.history_items_per_epoch,
                                    &table[e].counts);
    result.shards_total = spec.shards_per_epoch;
    result.shards_received = spec.shards_per_epoch;
    table[e].n = spec.history_items_per_epoch;
    if (!store.SealResult(kStream, e, result, table[e].n)) return false;
  }
  for (const std::string& name : mem.List()) {
    const fs::path path = fs::path(root) / name;
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    const std::optional<std::vector<uint8_t>> bytes = mem.Read(name);
    if (!bytes.has_value()) return false;
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) return false;
    const bool ok =
        std::fwrite(bytes->data(), 1, bytes->size(), out) == bytes->size() &&
        std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
    if (std::fclose(out) != 0 || !ok) return false;
  }
  std::FILE* out = std::fopen(table_path.c_str(), "wb");
  if (out == nullptr) return false;
  const bool ok = std::fwrite(table.data(), sizeof(HistoryEpoch), table.size(),
                              out) == table.size();
  return std::fclose(out) == 0 && ok;
}

// Forks before any thread exists, so the history's memory never counts
// toward the program's peak RSS.
template <typename S>
std::optional<std::vector<HistoryEpoch>> MakeHistory(
    const WorkloadSpec& spec, uint64_t seed, const Inputs& inputs,
    const std::string& root) {
  const std::string table_path = root + ".history";
  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child < 0) return std::nullopt;
  if (child == 0) {
    _exit(WriteHistory<S>(spec, seed, inputs, root, table_path) ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  std::vector<HistoryEpoch> table(spec.history_epochs);
  std::FILE* in = std::fopen(table_path.c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  const size_t got =
      std::fread(table.data(), sizeof(HistoryEpoch), table.size(), in);
  std::fclose(in);
  std::remove(table_path.c_str());
  if (got != table.size()) return std::nullopt;
  return table;
}

// ---- The stack under test ----

template <typename S, bool kTraced>
class Stack {
 public:
  using StoreT =
      std::conditional_t<kTraced, TracedStore<S>, DurableStore<S>>;

  Stack(const WorkloadSpec& spec, double eps, const std::string& root,
        std::function<S()> empty) {
    ScopedSpan span(SpanKind::kSetup);
    file_storage_ = std::make_unique<FileStorage>(root);
    Storage* storage = file_storage_.get();
    if constexpr (kTraced) {
      traced_storage_ = std::make_unique<TracedStorage>(storage);
      storage = traced_storage_.get();
    }
    durable_ = std::make_unique<DurableStore<S>>(storage,
                                                 StoreOptionsFor(spec, eps));
    {
      ScopedSpan open(SpanKind::kStoreOpen);
      open_report_ = durable_->Open();
    }
    StoreT* store = nullptr;
    if constexpr (kTraced) {
      traced_store_ = std::make_unique<TracedStore<S>>(durable_.get());
      store = traced_store_.get();
    } else {
      store = durable_.get();
    }
    EpochServiceConfig service_config;
    service_config.stream = kStream;
    service_config.shards_per_epoch = spec.shards_per_epoch;
    service_config.dedup_capacity =
        spec.shards_per_epoch * (kSealLag + 2);
    service_config.window_capacity = spec.window_capacity;
    service_ = std::make_unique<EpochService<S, StoreT>>(store,
                                                         service_config);
    service_->set_empty_summary_factory(std::move(empty));
    FrameHandler* handler = service_.get();
    if constexpr (kTraced) {
      traced_handler_ = std::make_unique<TracedHandler>(handler);
      handler = traced_handler_.get();
    }
    ShardedServerConfig server_config;
    server_config.shards = 1;
    server_config.workers_per_shard = spec.workers_per_shard;
    // Provisioned so the healthy path sheds nothing: each connection
    // has at most one batch or query in flight.
    server_config.admission.hard_cap = 1 << 16;
    server_config.admission.high_watermark = 1 << 15;
    server_config.admission.low_watermark = 1 << 12;
    server_config.admission.byte_budget = 256u << 20;
    server_config.admission.retry_after_ms = 1;
    server_config.max_conn_buffer_bytes = 8u << 20;
    server_ = std::make_unique<ShardedIngestServer>(handler, server_config);
    MERGEABLE_CHECK_MSG(server_->Start(), "server failed to start");
  }

  ~Stack() { server_->Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return server_->port(); }
  EpochService<S, StoreT>& service() { return *service_; }
  DurableStore<S>& durable() { return *durable_; }
  ShardedIngestServer& server() { return *server_; }
  const OpenReport& open_report() const { return open_report_; }

 private:
  std::unique_ptr<FileStorage> file_storage_;
  std::unique_ptr<TracedStorage> traced_storage_;
  std::unique_ptr<DurableStore<S>> durable_;
  std::unique_ptr<TracedStore<S>> traced_store_;
  std::unique_ptr<EpochService<S, StoreT>> service_;
  std::unique_ptr<TracedHandler> traced_handler_;
  std::unique_ptr<ShardedIngestServer> server_;
  OpenReport open_report_;
};

// ---- Correctness checks ----

struct CheckResult {
  bool ok = true;
  uint64_t checked = 0;
  uint64_t violations = 0;
  std::string detail;
};

// Exact per-epoch mass and tracked counts for every epoch the run could
// have sealed: the history table, then the ingested epochs, which are
// recomputed from the same (epoch, shard) -> payload function.
struct ExactTable {
  std::vector<uint64_t> mass_prefix;     // [e] = mass of epochs < e.
  std::vector<Counts> counts_prefix;

  ExactTable(const WorkloadSpec& spec, uint64_t seed, const Inputs& inputs,
             const std::vector<HistoryEpoch>& history, uint64_t sealed_next) {
    mass_prefix.assign(sealed_next + 1, 0);
    counts_prefix.assign(sealed_next + 1, Counts{});
    for (uint64_t e = 0; e < sealed_next; ++e) {
      uint64_t mass = 0;
      Counts counts{};
      if (e < history.size()) {
        mass = history[e].n;
        counts = history[e].counts;
      } else {
        mass = spec.shards_per_epoch * spec.items_per_report;
        for (uint64_t s = 0; s < spec.shards_per_epoch; ++s) {
          const Counts& pc = inputs.pool_counts[PayloadFor(inputs, seed, e, s)];
          for (size_t t = 0; t < kTracked; ++t) counts[t] += pc[t];
        }
      }
      mass_prefix[e + 1] = mass_prefix[e] + mass;
      for (size_t t = 0; t < kTracked; ++t) {
        counts_prefix[e + 1][t] = counts_prefix[e][t] + counts[t];
      }
    }
  }
};

template <typename S>
CheckResult CheckAnswers(const WorkloadSpec& spec, const Inputs& inputs,
                         const ExactTable& exact,
                         const std::vector<QuerySample>& samples) {
  CheckResult result;
  uint64_t estimates = 0;
  uint64_t over = 0;
  for (const QuerySample& sample : samples) {
    ++result.checked;
    if (sample.t2 + 1 >= exact.mass_prefix.size() || sample.t1 > sample.t2) {
      result.ok = false;
      result.detail = "answer range outside the sealed history";
      continue;
    }
    const uint64_t mass =
        exact.mass_prefix[sample.t2 + 1] - exact.mass_prefix[sample.t1];
    if (sample.epsilon != Family<S>::Epsilon(spec)) {
      result.ok = false;
      result.detail = "answer epsilon differs from the summary's";
      continue;
    }
    if (sample.n_received != mass) {
      result.ok = false;
      result.detail = "n_received differs from the exact range mass";
      continue;
    }
    std::optional<TaggedPayload> tagged = DecodeTaggedPayload(sample.payload);
    if (!tagged.has_value() || tagged->tag != SummaryTraits<S>::kTag) {
      result.ok = false;
      result.detail = "answer payload does not decode";
      continue;
    }
    ByteReader reader(tagged->payload);
    std::optional<S> summary = S::DecodeFrom(reader);
    if (!summary.has_value()) {
      result.ok = false;
      result.detail = "answer summary does not decode";
      continue;
    }
    const double slack = Family<S>::Epsilon(spec) * static_cast<double>(mass);
    for (size_t t = 0; t < kTracked; ++t) {
      const uint64_t f = exact.counts_prefix[sample.t2 + 1][t] -
                         exact.counts_prefix[sample.t1][t];
      const uint64_t estimate =
          Family<S>::Estimate(*summary, inputs.tracked[t]);
      ++estimates;
      if (estimate < f) {
        ++result.violations;
        result.ok = false;
        result.detail = "estimate below the exact count";
      } else if (static_cast<double>(estimate) >
                 static_cast<double>(f) + slack) {
        ++over;
      }
    }
  }
  result.violations += over;
  if (static_cast<double>(over) >
      Family<S>::Delta(spec) * static_cast<double>(estimates)) {
    result.ok = false;
    result.detail = "estimates above f + eps * n: " + std::to_string(over) +
                    " of " + std::to_string(estimates);
  }
  if (samples.empty()) {
    result.ok = false;
    result.detail = "no answers to check";
  }
  return result;
}

// ---- One run ----

struct Percentiles {
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t samples = 0;
  size_t beyond_p99 = 0;
};

Percentiles Summarize(std::vector<double> samples) {
  Percentiles out;
  out.samples = samples.size();
  double sum = 0.0;
  for (const double v : samples) sum += v;
  out.mean = samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  out.p50 = Percentile(samples, 50);
  out.p99 = Percentile(samples, 99);
  out.beyond_p99 = samples.empty() ? 0 : SamplesBeyond(samples, 99);
  return out;
}

Json PercentileJson(const Percentiles& p) {
  return Json()
      .Num("mean", p.mean)
      .Num("p50", p.p50)
      .Num("p99", p.p99)
      .Int("samples", p.samples)
      .Int("beyond_p99", p.beyond_p99);
}

template <typename S, bool kTraced>
int RunStack(const WorkloadSpec& spec, const RunOptions& options,
             const Inputs& inputs, const std::vector<HistoryEpoch>& history,
             const std::string& root) {
  const double eps = Family<S>::Epsilon(spec);
  const uint64_t seed = options.seed;
  std::function<S()> empty = [&spec, seed] {
    return Family<S>::Make(spec, seed);
  };

  // Set-up: restart the program on the history several times; the last
  // instance serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Stack<S, kTraced>> stack;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    stack.reset();
    const int64_t start = NowNs();
    stack = std::make_unique<Stack<S, kTraced>>(spec, eps, root, empty);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  const OpenReport open_report = stack->open_report();
  const uint64_t first_epoch = stack->service().next_epoch();
  const uint64_t disk_before = DirectoryBytes(root);

  auto& service = stack->service();
  auto& durable = stack->durable();
  Load::Hooks hooks;
  hooks.seal = [&service](uint64_t epoch, uint64_t offered) {
    return service.SealEpoch(epoch, offered);
  };
  hooks.snapshot = [&service, &durable] {
    const EpochServiceStats service_stats = service.stats();
    const StoreStats store_stats = durable.stats();
    const CacheStats cache = durable.cache_stats();
    LayerSnapshot snap;
    snap.nodes_built = store_stats.nodes_built;
    snap.epochs_sealed = store_stats.epochs_sealed;
    snap.cache_hits = cache.hits;
    snap.cache_misses = cache.misses;
    snap.queries_window = service_stats.queries_window;
    snap.queries_window_ring = service_stats.queries_window_ring;
    return snap;
  };
  Load load(spec, seed, inputs, stack->port(), first_epoch, std::move(hooks));
  load.Run(options.seconds);

  // A final full-history query after the load, checked like the rest.
  std::vector<QuerySample> samples = load.TakeQuerySamples();
  uint64_t queries_attempted = load.queries_attempted() + 1;
  uint64_t queries_failed = load.queries_failed();
  {
    IngestClient client(stack->port());
    WireQuery query;
    query.stream = kStream;
    query.t2 = load.sealed_next() - 1;
    std::optional<WireAnswer> answer = client.Query(query);
    if (answer.has_value() && answer->status == AnswerStatus::kOk &&
        !answer->partial) {
      samples.push_back(QuerySample{answer->t1, answer->t2,
                                    answer->n_received, answer->epsilon,
                                    std::move(answer->payload)});
    } else {
      ++queries_failed;
    }
  }
  stack->server().Drain();
  const AdmissionStats admission = stack->server().admission_stats();
  const EpochServiceStats service_stats = stack->service().stats();
  const uint64_t disk_after = DirectoryBytes(root);
  const double rss_peak_mb = [] {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }();
  stack.reset();

  // ---- Checks ----
  const ExactTable exact(spec, seed, inputs, history, load.sealed_next());
  const CheckResult answers = CheckAnswers<S>(spec, inputs, exact, samples);
  const bool reports_ok = load.reports_accepted() == load.reports_offered() &&
                          load.reports_failed() == 0;
  const bool no_shed = admission.shed_reports == 0 &&
                       service_stats.reports_shed_storage == 0;
  const bool seals_ok = load.seal_failures == 0 &&
                        service_stats.storage_seal_failures == 0;
  const bool queries_ok = queries_failed == 0;
  const bool correct =
      reports_ok && no_shed && seals_ok && queries_ok && answers.ok;

  // ---- Metrics ----
  const double window = load.window_s();
  const Percentiles report = Summarize(load.Gather(&Load::Gen::report_us));
  const Percentiles fill = Summarize(load.Gather(&Load::Gen::fill_us));
  const Percentiles seal = Summarize(load.seal_ms);
  const Percentiles query = Summarize(load.Gather(&Load::QueryConn::query_us));
  std::vector<double> late = load.Gather(&Load::Gen::late_us);
  const std::vector<double> query_late = load.Gather(&Load::QueryConn::late_us);
  const Percentiles ingest_lateness = Summarize(late);
  const Percentiles query_lateness = Summarize(query_late);
  late.insert(late.end(), query_late.begin(), query_late.end());
  const Percentiles lateness = Summarize(late);
  const double setup_median = Percentile(setup_s, 50);
  const uint64_t epochs_sealed = load.seals;
  const double disk_per_epoch =
      epochs_sealed == 0 ? 0.0
                         : static_cast<double>(disk_after - disk_before) /
                               static_cast<double>(epochs_sealed);

  // Health of the generator: CPU of the load threads, busy threads.
  const Load::Mark& b = load.begin();
  const Load::Mark& e = load.end();
  double load_cpu = 0.0;
  double max_load_share = 0.0;
  for (size_t i = 0; i < b.load_cpu.size(); ++i) {
    const double cpu = e.load_cpu[i] - b.load_cpu[i];
    load_cpu += cpu;
    max_load_share = std::max(max_load_share, cpu / window);
  }
  const double ticks_per_s = static_cast<double>(::sysconf(_SC_CLK_TCK));
  size_t busy_threads = 0;
  for (const auto& [tid, ticks] : e.task_ticks) {
    auto it = b.task_ticks.find(tid);
    const uint64_t before = it == b.task_ticks.end() ? 0 : it->second;
    if (static_cast<double>(ticks - before) / ticks_per_s > 0.5 * window) {
      ++busy_threads;
    }
  }
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const double program_cpu = (e.process_cpu - b.process_cpu) - load_cpu;
  const uint64_t accepted_in_window = load.reports_accepted_in_window();
  // The generator, not the program, limited the run when a load thread
  // was nearly always on a core or more threads were busy than cores.
  const bool valid = max_load_share < 0.9 &&
                     busy_threads <= static_cast<size_t>(nproc);

  const uint64_t attempted = load.reports_offered() + queries_attempted;
  const uint64_t failed = load.reports_failed() + queries_failed +
                          admission.shed_reports;

  const LayerSnapshot& lb = b.layers;
  const LayerSnapshot& le = e.layers;
  Json e2e;
  e2e.Num("ingest_rps", static_cast<double>(accepted_in_window) / window)
      .Num("program_cores", program_cpu / window)
      .Num("report_p50_us", report.p50)
      .Num("report_p99_us", report.p99)
      .Num("seal_p50_ms", seal.p50)
      .Num("seal_p99_ms", seal.p99)
      .Num("query_p50_us", query.p50)
      .Num("query_p99_us", query.p99)
      .Num("setup_s", setup_median)
      .Num("rss_peak_mb", rss_peak_mb)
      .Num("disk_bytes_per_epoch", disk_per_epoch);
  Json samples_json;
  samples_json.Obj("report_us", PercentileJson(report))
      .Obj("seal_ms", PercentileJson(seal))
      .Obj("query_us", PercentileJson(query));
  Json counters;
  counters.Int("window_begin_ns", static_cast<uint64_t>(b.ns))
      .Int("window_end_ns", static_cast<uint64_t>(e.ns))
      .Obj("client.fill_us", PercentileJson(fill))
      .Obj("generator.lateness_us", PercentileJson(lateness))
      .Obj("generator.ingest_lateness_us", PercentileJson(ingest_lateness))
      .Obj("generator.query_lateness_us", PercentileJson(query_lateness))
      .Int("client.retries", load.client_stats().retries)
      .Int("client.retry_after_nacks", load.client_stats().retry_after_nacks)
      .Int("admission.peak_depth", admission.peak_depth)
      .Int("admission.shed_reports", admission.shed_reports)
      .Int("store.nodes_built", le.nodes_built - lb.nodes_built)
      .Int("store.epochs_sealed", le.epochs_sealed - lb.epochs_sealed)
      .Int("store.cache_hits", le.cache_hits - lb.cache_hits)
      .Int("store.cache_misses", le.cache_misses - lb.cache_misses)
      .Int("service.queries_window", le.queries_window - lb.queries_window)
      .Int("service.queries_window_ring",
           le.queries_window_ring - lb.queries_window_ring)
      .Int("store.open_records", open_report.records)
      .Num("process.cpu_us_per_report",
           accepted_in_window == 0
               ? 0.0
               : program_cpu * 1e6 / static_cast<double>(accepted_in_window));
  Json health;
  health.Int("nproc", static_cast<uint64_t>(nproc))
      .Int("threads", e.task_ticks.size())
      .Int("busy_threads", busy_threads)
      .Int("load_threads", b.load_cpu.size())
      .Int("connections", b.load_cpu.size())
      .Num("generator_cpu_s", load_cpu)
      .Num("max_load_thread_share", max_load_share)
      .Num("lateness_p99_us", lateness.p99)
      .Num("steal_share",
           e.steal.second == b.steal.second
               ? 0.0
               : static_cast<double>(e.steal.first - b.steal.first) /
                     static_cast<double>(e.steal.second - b.steal.second))
      .Str("filesystem", FilesystemName(root))
      .Bool("valid", valid);
  Json checks;
  checks.Bool("accepted_equals_offered", reports_ok)
      .Int("reports_offered", load.reports_offered())
      .Int("reports_accepted", load.reports_accepted())
      .Bool("no_shed", no_shed)
      .Bool("seals_ok", seals_ok)
      .Bool("queries_ok", queries_ok)
      .Bool("answers_ok", answers.ok)
      .Int("answers_checked", answers.checked)
      .Int("estimate_violations", answers.violations)
      .Str("detail", answers.detail);
  Json out;
  out.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Str("workload", spec.name)
      .Int("seed", seed)
      .Num("window_s", window)
      .Int("epochs_sealed", epochs_sealed)
      .Obj("e2e", e2e)
      .Obj("samples", samples_json)
      .Obj("counters", counters)
      .Obj("health", health)
      .Obj("checks", checks);
  if (kTraced && !Tracer::Dump(options.dir + "/spans.tsv")) {
    std::fprintf(stderr, "perfbench: cannot write the span dump\n");
    return 1;
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

template <typename S>
int RunTyped(const WorkloadSpec& spec, const RunOptions& options) {
  Inputs inputs(spec, options.seed);
  BuildPool<S>(spec, options.seed, &inputs);
  const std::string root = options.dir + "/data";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  const std::optional<std::vector<HistoryEpoch>> history =
      MakeHistory<S>(spec, options.seed, inputs, root);
  if (!history.has_value()) {
    std::fprintf(stderr, "perfbench: writing the history failed\n");
    return 1;
  }
  if (options.trace) Tracer::Enable();
  const int code =
      options.trace
          ? RunStack<S, true>(spec, options, inputs, *history, root)
          : RunStack<S, false>(spec, options, inputs, *history, root);
  fs::remove_all(root, ec);
  return code;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

int RunWorkload(const RunOptions& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  return spec->count_min ? RunTyped<CountMinSketch>(*spec, options)
                         : RunTyped<SpaceSaving>(*spec, options);
}

}  // namespace perfbench
