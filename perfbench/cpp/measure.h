// Copyright 2026 The SemTree Authors
//
// Measurement math of the benchmark: nearest-rank percentiles, the
// rule that decides which tail percentile a sample set can support,
// and in-memory request spans with their self times. Everything here
// is a pure function or a single-threaded buffer, so the self-test
// (selftest.cc) can pin it down exactly.

#ifndef SEMTREE_PERFBENCH_MEASURE_H_
#define SEMTREE_PERFBENCH_MEASURE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles are written in hundredths of a percent (p99 = 9900) so
/// rank arithmetic stays in integers and p99 of 1000 samples is exactly
/// rank 990, not 989.9999.
constexpr int kP50 = 5000;
constexpr int kP99 = 9900;

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// ceil(p * n), 1-based. 0 for an empty input.
double Percentile(const std::vector<double>& sorted, int per10k);

/// Nearest-rank median of `v` in any order; 0 for an empty input.
double Median(std::vector<double> v);

/// Samples strictly above the nearest-rank `per10k` percentile of n.
size_t SamplesBeyond(size_t n, int per10k);

/// The percentile rule: the highest of p99.99, p99.9, p99, p90 and p50
/// that has at least `min_beyond` samples beyond it, in hundredths of a
/// percent; 0 when even the median is unsupported.
int HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Span names, in the order the spans file spells them.
enum SpanName : uint16_t {
  kOp = 0,
  kFastmapEmbed,
  kEngineRunOne,
  kEngineInsert,
  kEngineRemove,
  kSemtreeKnn,
  kSemtreeRange,
  kSemtreeInsert,
  kSemtreeRemove,
  kSemtreeBatch,
  kKdtreeKnn,
  kKdtreeRange,
  kRebalanceTick,
  kNumSpanNames,
};

const char* SpanNameString(uint16_t name);

/// Counter deltas a span of the single-client pass carries: cluster
/// messages, bytes, remote messages, forwards, RPC calls, and the
/// partitions the search visited.
using SpanCounters = std::array<uint64_t, 6>;

/// One timed interval. `parent` indexes the same log (-1 for a root);
/// spans of one request share `request`.
struct Span {
  uint64_t request = 0;
  int32_t parent = -1;
  uint16_t name = kOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanCounters counters{};

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Monotonic nanoseconds since an arbitrary process-wide origin.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (each clipped to the
/// parent). Aligned with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Append-only span buffer of one client thread. Begin nests under the
/// innermost open span and inherits its request id.
class SpanLog {
 public:
  int32_t Begin(uint16_t name, uint64_t request);
  void End(int32_t index);

  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Records one span around a scope when `log` is non-null (a sampled
/// request); a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, uint16_t name, uint64_t request = 0)
      : log_(log), index_(log ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_counters(const SpanCounters& counters) {
    if (log_ != nullptr) log_->spans()[index_].counters = counters;
  }

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // SEMTREE_PERFBENCH_MEASURE_H_
