// Self-test of the benchmark's C++ helpers: percentile math and span
// nesting. Exits 0 when every check passes.
//
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> empty;
  Expect(std::isnan(Percentile(empty, 50)), "empty percentile is NaN");
  std::vector<double> one = {7.0};
  Expect(Near(Percentile(one, 99), 7.0), "single sample");
  // Unsorted 1..10: position q/100 * 9 in sorted order.
  std::vector<double> ten = {10, 3, 7, 1, 9, 2, 8, 4, 6, 5};
  Expect(Near(Percentile(ten, 0), 1.0), "p0 is the minimum");
  Expect(Near(Percentile(ten, 100), 10.0), "p100 is the maximum");
  Expect(Near(Percentile(ten, 50), 5.5), "p50 interpolates");
  Expect(Near(Percentile(ten, 99), 9.91), "p99 interpolates");
  Expect(Near(Percentile(ten, 25), 3.25), "p25 interpolates");
  std::vector<double> ties = {2, 2, 2, 2};
  Expect(Near(Percentile(ties, 90), 2.0), "ties");
  std::vector<double> hundred;
  for (int i = 1; i <= 1000; ++i) hundred.push_back(i);
  Expect(perfbench::SamplesBeyond(hundred, 99) == 10,
         "ten samples beyond p99 of 1..1000");
}

void TestSpans() {
  using perfbench::ScopedSpan;
  using perfbench::SpanKind;
  perfbench::Tracer::Enable();
  {
    ScopedSpan outer(SpanKind::kServiceSeal, 42);
    {
      ScopedSpan inner(SpanKind::kStoreSeal, 42);
      ScopedSpan leaf(SpanKind::kStorageAppend, 0, 128);
    }
    ScopedSpan sibling(SpanKind::kStorageAppend, 0, 64);
  }
  std::thread other([] { ScopedSpan span(SpanKind::kServiceBatch, 7, 3); });
  other.join();
  const std::vector<perfbench::Span> spans = perfbench::Tracer::Collect();
  Expect(spans.size() == 5, "five spans recorded");
  if (spans.size() != 5) return;
  // Spans are recorded as they end: leaf, inner, sibling, outer, then
  // the other thread's.
  const perfbench::Span& leaf = spans[0];
  const perfbench::Span& inner = spans[1];
  const perfbench::Span& sibling = spans[2];
  const perfbench::Span& outer = spans[3];
  const perfbench::Span& remote = spans[4];
  Expect(outer.parent == 0, "outer span has no parent");
  Expect(inner.parent == outer.id, "inner's parent is outer");
  Expect(leaf.parent == inner.id, "leaf's parent is inner");
  Expect(sibling.parent == outer.id, "parent restored after inner ends");
  Expect(leaf.arg == 128 && sibling.arg == 64, "span arguments");
  Expect(remote.parent == 0 && remote.thread != outer.thread,
         "another thread starts its own stack");
  Expect(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns,
         "children nest in time");
}

}  // namespace

int main() {
  TestPercentile();
  TestSpans();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
