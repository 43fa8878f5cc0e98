"""Per-layer metrics of one traced run, from its spans and counters.

Every span-derived metric uses the spans that ended inside the measured
phase. Self time is a span's duration minus what its children cover;
the one cross-thread edge, a client call and the server-side span it
caused, is paired by request id (spans.pair_by_request).
"""

import collections
import math

import spans as sp

# (name, unit) of every per-layer metric, in the order BENCHMARK.json
# lists them.
PER_LAYER = [
    # User-visible latencies, measured by the generator; too unsteady
    # on a shared host to gate on (see README.md), so they have no bound.
    ("report_p50_us", "us"),
    ("report_p99_us", "us"),
    ("seal_p50_ms", "ms"),
    ("seal_p99_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("client.flush_rtt_us.p50", "us"),
    ("client.flush_rtt_us.p99", "us"),
    ("client.fill_us.p50", "us"),
    ("client.fill_us.p99", "us"),
    ("client.retries", "count"),
    ("client.retry_after_nacks", "count"),
    ("transport.wait_us.p50", "us"),
    ("transport.wait_us.p99", "us"),
    ("admission.peak_depth", "count"),
    ("admission.shed_reports", "count"),
    ("epoch_service.batch_us.p50", "us"),
    ("epoch_service.batch_us.p99", "us"),
    ("epoch_service.batch_us_per_report.p50", "us"),
    ("epoch_service.batch_seal_overlap_share", "ratio"),
    ("epoch_service.seal_ms.p50", "ms"),
    ("epoch_service.seal_ms.p99", "ms"),
    ("epoch_service.seal_self_ms.p50", "ms"),
    ("epoch_service.seal_self_ms.p99", "ms"),
    ("epoch_service.query_us.p50", "us"),
    ("epoch_service.query_us.p99", "us"),
    ("epoch_service.query_self_us.p50", "us"),
    ("epoch_service.query_self_us.p99", "us"),
    ("store.seal_ms.p50", "ms"),
    ("store.seal_ms.p99", "ms"),
    ("store.seal_self_ms.p50", "ms"),
    ("store.seal_self_ms.p99", "ms"),
    ("store.query_us.p50", "us"),
    ("store.query_us.p99", "us"),
    ("store.nodes_merged_per_query", "count"),
    ("store.cache_hit_rate", "ratio"),
    ("store.window_ring_share", "ratio"),
    ("store.nodes_built_per_seal", "count"),
    ("store.open_ms", "ms"),
    ("store.open_records", "count"),
    ("storage.append_us.p50", "us"),
    ("storage.append_us.p99", "us"),
    ("storage.appends_per_epoch", "count"),
    ("storage.bytes_per_epoch", "B"),
    ("storage.read_ms", "ms"),
    ("process.cpu_us_per_report", "us"),
    ("generator.lateness_us.p50", "us"),
    ("generator.lateness_us.p99", "us"),
    ("host.steal_share", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _dur(span):
    return span.end - span.start


class Trace:
    """The spans of one run, indexed for the metrics below."""

    def __init__(self, spans, counters):
        lo = counters["window_begin_ns"]
        hi = counters["window_end_ns"]
        self.all = collections.defaultdict(list)
        self.window = collections.defaultdict(list)
        for s in spans:
            self.all[s.kind].append(s)
            if lo <= s.end <= hi:
                self.window[s.kind].append(s)
        self.kids = sp.children_by_parent(spans)

    def durations(self, kind, scale):
        return [_dur(s) / scale for s in self.window[kind]]

    def self_times(self, kind, scale):
        return [sp.self_time(s, self.kids[s.id]) / scale
                for s in self.window[kind]]

    def child_sums(self, kind, child_kind, scale):
        """Per span of `kind`, the summed duration of its `child_kind`
        children (direct or nested)."""
        out = []
        for s in self.window[kind]:
            total = 0
            stack = list(self.kids[s.id])
            while stack:
                c = stack.pop()
                if c.kind == child_kind:
                    total += _dur(c)
                else:
                    stack.extend(self.kids[c.id])
            out.append(total / scale)
        return out


def _p(values, q):
    return sp.percentile(values, q)


def _mean(values):
    return sum(values) / len(values) if values else math.nan


def compute(spans, raw):
    """Returns ({name: value}, [table lines]) for one traced run; `raw` is
    the driver's result (counters, the latencies the generator measured,
    sample summaries and health) for the same run."""
    counters = raw["counters"]
    e2e = raw["e2e"]
    t = Trace(spans, counters)
    us, ms = 1e3, 1e6
    m = {name: e2e[name] for name in ("report_p50_us", "report_p99_us",
                                      "seal_p50_ms", "seal_p99_ms",
                                      "query_p50_us", "query_p99_us")}
    m["host.steal_share"] = raw["health"]["steal_share"]

    flushes = t.window["client.flush"]
    batch_pairs = sp.pair_by_request(flushes, t.all["epoch_service.batch"])
    flush_us = [_dur(f) / us for f in flushes]
    transport_us = [(_dur(f) - _dur(batch_pairs[f.id])) / us
                    for f in flushes if f.id in batch_pairs]
    batches = t.window["epoch_service.batch"]
    batch_us = [_dur(b) / us for b in batches]
    seals = t.window["epoch_service.seal"]

    m["client.flush_rtt_us.p50"] = _p(flush_us, 50)
    m["client.flush_rtt_us.p99"] = _p(flush_us, 99)
    m["client.fill_us.p50"] = counters["client.fill_us"]["p50"]
    m["client.fill_us.p99"] = counters["client.fill_us"]["p99"]
    m["client.retries"] = counters["client.retries"]
    m["client.retry_after_nacks"] = counters["client.retry_after_nacks"]
    m["transport.wait_us.p50"] = _p(transport_us, 50)
    m["transport.wait_us.p99"] = _p(transport_us, 99)
    m["admission.peak_depth"] = counters["admission.peak_depth"]
    m["admission.shed_reports"] = counters["admission.shed_reports"]
    m["epoch_service.batch_us.p50"] = _p(batch_us, 50)
    m["epoch_service.batch_us.p99"] = _p(batch_us, 99)
    m["epoch_service.batch_us_per_report.p50"] = _p(
        [_dur(b) / us / b.arg for b in batches if b.arg], 50)
    m["epoch_service.batch_seal_overlap_share"] = sp.overlap_share(
        batches, t.all["epoch_service.seal"])

    seal_ms = t.durations("epoch_service.seal", ms)
    seal_self = t.self_times("epoch_service.seal", ms)
    m["epoch_service.seal_ms.p50"] = _p(seal_ms, 50)
    m["epoch_service.seal_ms.p99"] = _p(seal_ms, 99)
    m["epoch_service.seal_self_ms.p50"] = _p(seal_self, 50)
    m["epoch_service.seal_self_ms.p99"] = _p(seal_self, 99)

    queries = t.window["client.query"]
    query_pairs = sp.pair_by_request(queries, t.all["epoch_service.query"])
    served = t.window["epoch_service.query"]
    query_us = [_dur(q) / us for q in served]
    query_self = t.self_times("epoch_service.query", us)
    m["epoch_service.query_us.p50"] = _p(query_us, 50)
    m["epoch_service.query_us.p99"] = _p(query_us, 99)
    m["epoch_service.query_self_us.p50"] = _p(query_self, 50)
    m["epoch_service.query_self_us.p99"] = _p(query_self, 99)

    store_seal = t.durations("store.seal", ms)
    store_seal_self = t.self_times("store.seal", ms)
    m["store.seal_ms.p50"] = _p(store_seal, 50)
    m["store.seal_ms.p99"] = _p(store_seal, 99)
    m["store.seal_self_ms.p50"] = _p(store_seal_self, 50)
    m["store.seal_self_ms.p99"] = _p(store_seal_self, 99)
    store_query = t.durations("store.query", us)
    m["store.query_us.p50"] = _p(store_query, 50)
    m["store.query_us.p99"] = _p(store_query, 99)
    sq = t.window["store.query"]
    m["store.nodes_merged_per_query"] = _ratio(sum(s.arg for s in sq),
                                               len(sq))
    hits = counters["store.cache_hits"]
    m["store.cache_hit_rate"] = _ratio(hits,
                                       hits + counters["store.cache_misses"])
    m["store.window_ring_share"] = _ratio(
        counters["service.queries_window_ring"],
        counters["service.queries_window"])
    m["store.nodes_built_per_seal"] = _ratio(counters["store.nodes_built"],
                                             counters["store.epochs_sealed"])
    opens = t.all["store.open"]
    m["store.open_ms"] = _p([_dur(o) / ms for o in opens], 50)
    m["store.open_records"] = counters["store.open_records"]
    m["storage.read_ms"] = _p(
        [sum(_dur(c) for c in t.kids[o.id] if c.kind == "storage.read") / ms
         for o in opens], 50)

    appends = t.window["storage.append"]
    append_us = [_dur(a) / us for a in appends]
    m["storage.append_us.p50"] = _p(append_us, 50)
    m["storage.append_us.p99"] = _p(append_us, 99)
    m["storage.appends_per_epoch"] = _ratio(len(appends), len(seals))
    m["storage.bytes_per_epoch"] = _ratio(sum(a.arg for a in appends),
                                          len(seals))
    m["process.cpu_us_per_report"] = counters["process.cpu_us_per_report"]
    m["generator.lateness_us.p50"] = counters["generator.lateness_us"]["p50"]
    m["generator.lateness_us.p99"] = counters["generator.lateness_us"]["p99"]

    # ---- Self-time table and blocking-path accounting ----
    lines = ["%-22s %8s %12s %12s %12s" %
             ("span", "count", "p50_us", "self_p50_us", "self_sum_ms")]
    for kind in sorted(t.window):
        d = t.durations(kind, us)
        self_us = t.self_times(kind, us)
        lines.append("%-22s %8d %12.1f %12.1f %12.1f" %
                     (kind, len(d), _p(d, 50), _p(self_us, 50),
                      sum(self_us) / 1e3))

    def path(title, total, parts):
        """`total` and each part are (p50, mean) of one blocking step.
        Means add up exactly when the parts partition the total per
        event; medians need not, and the remainder shows the gap."""
        lines.append("%s:%19s %10s" % (title, "p50", "mean"))
        lines.append("  %-34s %10.1f %10.1f" % ("end-to-end", *total))
        rest = list(total)
        for label, (p50, mean) in parts:
            lines.append("  %-34s %10.1f %10.1f" % (label, p50, mean))
            rest[0] -= p50
            rest[1] -= mean
        lines.append("  %-34s %10.1f %10.1f" % ("remainder", *rest))

    def stat(values):
        return _p(values, 50), _mean(values)

    def counted(name):
        return counters[name]["p50"], counters[name]["mean"]

    samples = raw["samples"]
    path("report path (us)", (samples["report_us"]["p50"],
                              samples["report_us"]["mean"]), [
        ("generator.lateness (ingest)",
         counted("generator.ingest_lateness_us")),
        ("client.fill", counted("client.fill_us")),
        ("transport.wait (flush - batch)", stat(transport_us)),
        ("epoch_service.batch", stat(batch_us)),
    ])
    path("seal path (ms)", (samples["seal_ms"]["p50"],
                            samples["seal_ms"]["mean"]), [
        ("epoch_service.seal self", stat(seal_self)),
        ("store.seal self", stat(store_seal_self)),
        ("storage.append in the seal",
         stat(t.child_sums("epoch_service.seal", "storage.append", ms))),
    ])
    client_wait = [(_dur(q) - _dur(query_pairs[q.id])) / us
                   for q in queries if q.id in query_pairs]
    path("query path (us)", (samples["query_us"]["p50"],
                             samples["query_us"]["mean"]), [
        ("generator.lateness (query)",
         counted("generator.query_lateness_us")),
        ("transport (client - service)", stat(client_wait)),
        ("epoch_service.query self", stat(query_self)),
        ("store.query in the service span",
         stat(t.child_sums("epoch_service.query", "store.query", us))),
    ])
    return m, lines
