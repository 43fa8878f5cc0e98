"""Span and sample math for the benchmark's traced runs.

Reads the span dump perfbench writes with --trace 1 (one span per line:
kind, id, parent, thread, request, arg, start_ns, end_ns) and derives
the per-layer metrics: durations, self times, cross-thread pairing of a
client call with the server-side span it caused, and overlap shares.
"""

import bisect
import collections
import math
import statistics

Span = collections.namedtuple(
    "Span", "kind id parent thread request arg start end")


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            kind, *fields = line.rstrip("\n").split("\t")
            spans.append(Span(kind, *(int(x) for x in fields)))
    return spans


def percentile(values, q):
    """q-th percentile with linear interpolation between closest ranks
    (position q/100 * (n - 1)), as perfbench's C++ Percentile()."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    if lo + 1 >= len(ordered):
        return float(ordered[lo])
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else math.nan
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def merge_intervals(intervals):
    """Sorted, disjoint [start, end) intervals covering the same points."""
    out = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def union_length(intervals, lo=None, hi=None):
    """Total length covered by `intervals` ([start, end) pairs), clipped
    to [lo, hi) when given."""
    total = 0
    for start, end in merge_intervals(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        total += max(0, end - start)
    return total


def self_time(span, children):
    """The span's duration minus the part of it its children cover.
    Children may overlap each other or run on other threads."""
    covered = union_length([(c.start, c.end) for c in children],
                           span.start, span.end)
    return (span.end - span.start) - covered


def children_by_parent(spans):
    kids = collections.defaultdict(list)
    for s in spans:
        if s.parent:
            kids[s.parent].append(s)
    return kids


def pair_by_request(callers, callees):
    """Pairs each caller span with the callee span of the same request id
    that lies inside it in time (the server-side span a client call
    caused, on another thread). Returns {caller.id: callee}; callers
    with no such callee are left out."""
    by_request = collections.defaultdict(list)
    for c in callees:
        by_request[c.request].append(c)
    pairs = {}
    for caller in callers:
        for c in by_request.get(caller.request, ()):
            if c.start >= caller.start and c.end <= caller.end:
                pairs[caller.id] = c
                break
    return pairs


def overlap_share(spans, others):
    """Share of the total duration of `spans` during which at least one
    of `others` was running."""
    total = sum(s.end - s.start for s in spans)
    if total == 0:
        return 0.0
    union = merge_intervals((o.start, o.end) for o in others)
    starts = [start for start, _ in union]
    overlapped = 0
    for s in spans:
        i = max(0, bisect.bisect_right(starts, s.start) - 1)
        while i < len(union) and union[i][0] < s.end:
            start, end = union[i]
            overlapped += max(0, min(end, s.end) - max(start, s.start))
            i += 1
    return overlapped / total
