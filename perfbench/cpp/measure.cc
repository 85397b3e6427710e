// Copyright 2026 The SemTree Authors

#include "measure.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of the per10k percentile among n samples.
size_t NearestRank(size_t n, int per10k) {
  const uint64_t p = static_cast<uint64_t>(std::clamp(per10k, 0, 10000));
  const uint64_t rank = (p * n + 9999) / 10000;
  return static_cast<size_t>(std::max<uint64_t>(rank, 1));
}

}  // namespace

double Percentile(const std::vector<double>& sorted, int per10k) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), per10k) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, kP50);
}

size_t SamplesBeyond(size_t n, int per10k) {
  if (n == 0) return 0;
  return n - NearestRank(n, per10k);
}

int HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (int p : {9999, 9990, 9900, 9000, 5000}) {
    if (n > 0 && SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "op",
      "fastmap.embed",
      "engine.runone",
      "engine.insert",
      "engine.remove",
      "semtree.knn",
      "semtree.range",
      "semtree.insert",
      "semtree.remove",
      "semtree.batch",
      "kdtree.knn",
      "kdtree.range",
      "rebalance.tick",
  };
  return name < kNumSpanNames ? kNames[name] : "unknown";
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

int32_t SpanLog::Begin(uint16_t name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  if (!open_.empty()) {
    s.parent = open_.back();
    s.request = spans_[static_cast<size_t>(s.parent)].request;
  }
  s.start_ns = NowNs();
  spans_.push_back(s);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost-first (they are scoped), so the open stack
  // pops back to, and including, `index`.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

}  // namespace perfbench
