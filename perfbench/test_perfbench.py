"""Tests of the benchmark's Python helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import layers
import spans as sp
from spans import Span


def span(kind, sid, start, end, parent=0, thread=1, request=0, arg=0):
    return Span(kind, sid, parent, thread, request, arg, start, end)


class PercentileTest(unittest.TestCase):
    def test_matches_the_cpp_definition(self):
        ten = [10, 3, 7, 1, 9, 2, 8, 4, 6, 5]
        self.assertEqual(sp.percentile(ten, 0), 1)
        self.assertEqual(sp.percentile(ten, 100), 10)
        self.assertAlmostEqual(sp.percentile(ten, 50), 5.5)
        self.assertAlmostEqual(sp.percentile(ten, 99), 9.91)
        self.assertAlmostEqual(sp.percentile(ten, 25), 3.25)

    def test_edge_cases(self):
        self.assertTrue(math.isnan(sp.percentile([], 50)))
        self.assertEqual(sp.percentile([7], 99), 7)
        self.assertEqual(sp.percentile([2, 2, 2], 90), 2)

    def test_quartiles_are_the_statistics_module_ones(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        self.assertEqual(sp.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(sp.quartiles([4.0]), (4.0, 4.0, 4.0))


class IntervalTest(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(sp.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(sp.union_length([(0, 10), (5, 15)], 8, 12), 4)
        self.assertEqual(sp.union_length([(5, 5), (7, 3)]), 0)
        self.assertEqual(sp.union_length([(0, 10), (10, 20)]), 20)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        seal = span("epoch_service.seal", 1, 0, 100)
        store = span("store.seal", 2, 20, 90, parent=1)
        appends = [span("storage.append", 3, 30, 50, parent=2),
                   span("storage.append", 4, 60, 70, parent=2)]
        kids = sp.children_by_parent([seal, store] + appends)
        self.assertEqual(sp.self_time(seal, kids[1]), 30)
        self.assertEqual(sp.self_time(store, kids[2]), 40)
        self.assertEqual(sp.self_time(appends[0], kids[3]), 20)

    def test_cross_thread_children_overlapping_and_outside(self):
        flush = span("client.flush", 1, 100, 200, thread=1)
        # Server spans on other threads: overlapping each other, and one
        # reaching past the caller's end (only its inside part counts).
        children = [span("epoch_service.batch", 2, 120, 160, thread=2),
                    span("epoch_service.batch", 3, 150, 170, thread=3),
                    span("epoch_service.batch", 4, 190, 230, thread=2)]
        self.assertEqual(sp.self_time(flush, children), 100 - 50 - 10)

    def test_pairing_by_request_requires_containment(self):
        flushes = [span("client.flush", 1, 0, 100, request=7),
                   span("client.flush", 2, 200, 300, request=8)]
        batches = [span("epoch_service.batch", 3, 150, 160, request=8),
                   span("epoch_service.batch", 4, 220, 260, request=8),
                   span("epoch_service.batch", 5, 10, 90, request=7)]
        pairs = sp.pair_by_request(flushes, batches)
        self.assertEqual(pairs[1].id, 5)
        self.assertEqual(pairs[2].id, 4)
        unmatched = [span("client.flush", 6, 400, 500, request=9)]
        self.assertEqual(sp.pair_by_request(unmatched, batches), {})


class OverlapShareTest(unittest.TestCase):
    def test_share_of_batch_time_under_seals(self):
        batches = [span("epoch_service.batch", 1, 0, 100),
                   span("epoch_service.batch", 2, 200, 300)]
        seals = [span("epoch_service.seal", 3, 50, 80),
                 span("epoch_service.seal", 4, 70, 120),
                 span("epoch_service.seal", 5, 250, 400)]
        # Batch 1 overlaps [50, 100) = 50; batch 2 overlaps [250, 300) = 50.
        self.assertAlmostEqual(sp.overlap_share(batches, seals), 0.5)
        self.assertEqual(sp.overlap_share(batches, []), 0.0)
        self.assertEqual(sp.overlap_share([], seals), 0.0)


class LayersTest(unittest.TestCase):
    def test_paths_of_a_small_trace(self):
        us = 1000
        trace = [
            span("client.flush", 1, 0, 100 * us, thread=1, request=5, arg=4),
            span("epoch_service.batch", 2, 30 * us, 70 * us, thread=2,
                 request=5, arg=4),
            span("epoch_service.seal", 3, 60 * us, 160 * us, thread=3),
            span("store.seal", 4, 80 * us, 150 * us, parent=3, thread=3),
            span("storage.append", 5, 90 * us, 130 * us, parent=4, thread=3,
                 arg=512),
            span("client.query", 6, 200 * us, 300 * us, thread=4,
                 request=11),
            span("epoch_service.query", 7, 220 * us, 280 * us, thread=2,
                 request=11),
            span("store.query", 8, 240 * us, 270 * us, parent=7, thread=2,
                 arg=3),
            span("store.open", 9, -50 * us, -10 * us, thread=1),
            span("storage.read", 10, -40 * us, -30 * us, parent=9, thread=1),
        ]
        counters = {
            "window_begin_ns": 0, "window_end_ns": 1000 * us,
            "client.fill_us": {"p50": 5.0, "p99": 9.0, "mean": 5.0},
            "generator.lateness_us": {"p50": 1.0, "p99": 2.0, "mean": 1.0},
            "generator.ingest_lateness_us": {"p50": 2.0, "mean": 2.0},
            "generator.query_lateness_us": {"p50": 1.0, "mean": 1.0},
            "client.retries": 0, "client.retry_after_nacks": 0,
            "admission.peak_depth": 4, "admission.shed_reports": 0,
            "store.nodes_built": 2, "store.epochs_sealed": 1,
            "store.cache_hits": 3, "store.cache_misses": 1,
            "service.queries_window": 4, "service.queries_window_ring": 1,
            "store.open_records": 12, "process.cpu_us_per_report": 2.5,
        }
        raw = {
            "counters": counters,
            "e2e": {"report_p50_us": 110.0, "report_p99_us": 130.0,
                    "seal_p50_ms": 0.1, "seal_p99_ms": 0.2,
                    "query_p50_us": 101.0, "query_p99_us": 150.0},
            "samples": {"report_us": {"p50": 110.0, "mean": 112.0},
                        "seal_ms": {"p50": 0.1, "mean": 0.1},
                        "query_us": {"p50": 101.0, "mean": 101.0}},
            "health": {"steal_share": 0.05},
        }
        m, lines = layers.compute(trace, raw)
        self.assertEqual(set(m), {name for name, _ in layers.PER_LAYER})
        self.assertAlmostEqual(m["client.flush_rtt_us.p50"], 100)
        self.assertAlmostEqual(m["transport.wait_us.p50"], 60)
        self.assertAlmostEqual(m["epoch_service.batch_us.p50"], 40)
        self.assertAlmostEqual(m["epoch_service.batch_us_per_report.p50"], 10)
        self.assertAlmostEqual(m["epoch_service.batch_seal_overlap_share"],
                               0.25)
        self.assertAlmostEqual(m["epoch_service.seal_self_ms.p50"], 0.03)
        self.assertAlmostEqual(m["store.seal_self_ms.p50"], 0.03)
        self.assertAlmostEqual(m["storage.appends_per_epoch"], 1)
        self.assertAlmostEqual(m["storage.bytes_per_epoch"], 512)
        self.assertAlmostEqual(m["epoch_service.query_self_us.p50"], 30)
        self.assertAlmostEqual(m["store.nodes_merged_per_query"], 3)
        self.assertAlmostEqual(m["store.cache_hit_rate"], 0.75)
        self.assertAlmostEqual(m["store.window_ring_share"], 0.25)
        self.assertAlmostEqual(m["store.open_ms"], 0.04)
        self.assertAlmostEqual(m["storage.read_ms"], 0.01)
        self.assertAlmostEqual(m["host.steal_share"], 0.05)
        # Report path: 110 = lateness 2 + fill 5 + transport 60 + batch 40
        # + 3 left (p50); the mean column leaves 5.
        report = next(i for i, line in enumerate(lines)
                      if line.startswith("report path"))
        remainder = lines[report + 6].split()
        self.assertEqual(remainder, ["remainder", "3.0", "5.0"])
        query = next(i for i, line in enumerate(lines)
                     if line.startswith("query path"))
        # 101 = lateness 1 + transport 40 + self 30 + store 30 + 0 left.
        self.assertEqual(lines[query + 6].split(), ["remainder", "0.0", "0.0"])


if __name__ == "__main__":
    unittest.main()
