// Copyright 2026 The SemTree Authors
//
// Self-test of the benchmark's own math (measure.h): nearest-rank
// percentiles, the percentile rule, and span self time. Exits non-zero
// when any expectation fails; `python3 perfbench/run.py --selftest`
// runs it.

#include <cstdio>
#include <vector>

#include "measure.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT_EQ(a, b)                                                  \
  do {                                                                   \
    const auto va = (a);                                                 \
    const auto vb = (b);                                                 \
    if (!(va == vb)) {                                                   \
      std::fprintf(stderr, "%s:%d: %s != %s\n", __FILE__, __LINE__, #a, \
                   #b);                                                  \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, kP50), 500.0);
  EXPECT_EQ(Percentile(v, kP99), 990.0);
  EXPECT_EQ(Percentile(v, 10000), 1000.0);
  EXPECT_EQ(Percentile(v, 0), 1.0);
  EXPECT_EQ(Percentile({}, kP50), 0.0);
  EXPECT_EQ(Percentile({7.0}, kP99), 7.0);
  EXPECT_EQ(Percentile({1.0, 2.0}, kP50), 1.0);
  EXPECT_EQ(Median({3.0, -1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

void TestPercentileRule() {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it.
  EXPECT_EQ(SamplesBeyond(1000, kP99), size_t{10});
  EXPECT_EQ(SamplesBeyond(999, kP99), size_t{9});
  EXPECT_EQ(HighestSupportedPercentile(999), 9000);
  EXPECT_EQ(HighestSupportedPercentile(1000), kP99);
  EXPECT_EQ(HighestSupportedPercentile(9999), kP99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 9990);
  EXPECT_EQ(HighestSupportedPercentile(100000), 9999);
  EXPECT_EQ(HighestSupportedPercentile(100), 9000);
  EXPECT_EQ(HighestSupportedPercentile(20), kP50);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(200, 100), kP50);
}

void TestSelfTimes() {
  // Root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild inside the first child.
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30), MakeSpan(0, 20, 50),
      MakeSpan(1, 12, 18)};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], int64_t{60});
  EXPECT_EQ(self[1], int64_t{14});
  EXPECT_EQ(self[2], int64_t{30});
  EXPECT_EQ(self[3], int64_t{6});

  // A child sticking out of its parent only counts inside it; disjoint
  // children add up; a leaf's self time is its duration.
  spans = {MakeSpan(-1, 100, 200), MakeSpan(0, 90, 120),
           MakeSpan(0, 150, 160), MakeSpan(0, 190, 250)};
  self = SelfTimes(spans);
  EXPECT_EQ(self[0], int64_t{100 - 20 - 10 - 10});
  EXPECT_EQ(self[3], int64_t{60});

  // Children sharing an edge do not double count.
  spans = {MakeSpan(-1, 0, 10), MakeSpan(0, 0, 5), MakeSpan(0, 5, 10)};
  self = SelfTimes(spans);
  EXPECT_EQ(self[0], int64_t{0});
}

void TestSpanLog() {
  SpanLog log;
  {
    ScopedSpan op(&log, kOp, 42);
    { ScopedSpan child(&log, kFastmapEmbed); }
    ScopedSpan second(&log, kEngineRunOne);
  }
  { ScopedSpan root(&log, kOp, 43); }
  const std::vector<Span>& s = log.spans();
  EXPECT_EQ(s.size(), size_t{4});
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[1].request, uint64_t{42});
  EXPECT_EQ(s[2].request, uint64_t{42});
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[3].request, uint64_t{43});
  for (const Span& span : s) EXPECT_EQ(span.end_ns >= span.start_ns, true);
  ScopedSpan off(nullptr, kOp, 1);  // Unsampled: records nothing.
  EXPECT_EQ(log.spans().size(), size_t{4});
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestPercentileRule();
  perfbench::TestSelfTimes();
  perfbench::TestSpanLog();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: OK\n");
  return 0;
}
