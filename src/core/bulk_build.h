// Copyright 2026 The SemTree Authors
//
// The parallel bulk-build pipeline (DESIGN.md §8). Every balanced bulk
// builder — KdTree::BulkLoadBalanced, the SemTree partition build, the
// client-side region splitter — funnels through the same two-phase
// scheme:
//
//  Phase 1 (parallel): build a *plan* — a pointer tree of split
//  decisions over disjoint spans of one index vector. Each span is
//  processed sequentially by exactly one task, and a span's content at
//  task start depends only on its parent's (deterministic, sequential)
//  partition — so the plan is byte-for-byte independent of thread
//  count and scheduling. Leaf spans are canonicalized to ascending
//  index order for the same reason: however a split policy permuted
//  the span, the emitted bucket is the sorted one.
//
//  Phase 2 (serial): the caller walks the plan and emits its own node
//  representation in exactly the order its historical serial builder
//  allocated nodes. Parallel and serial builds therefore produce
//  identical node arrays — and identical snapshot bytes.
//
// Split policies (core/split.h): kMedian is the paper's widest-spread
// median cut; kCentroid runs a small 2-means on the node's rows and
// cuts along the axis separating the two cluster centroids most, which
// aligns leaf regions with the data's cluster structure and reduces
// distance computations per query on clustered corpora
// (bench/bulk_build.cc measures this). Clustering runs under L2
// regardless of the index's query metric: the split plane only shapes
// the partition — query-time pruning still uses the index's own metric
// bounds, so searches stay exact either way.

#ifndef SEMTREE_CORE_BULK_BUILD_H_
#define SEMTREE_CORE_BULK_BUILD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/kernels.h"
#include "core/split.h"

namespace semtree {

/// Knobs shared by every plan-based bulk builder. Callers translate
/// their own options (KdTreeOptions, BackendOptions, SemTreeOptions)
/// into this.
struct BulkBuildOptions {
  SplitPolicy policy = SplitPolicy::kMedian;

  /// Worker threads for phase 1. 1 = serial (the default), 0 = one per
  /// hardware thread, n = exactly n. The built tree is byte-identical
  /// across all values — this knob trades wall-clock only.
  size_t build_threads = 1;

  /// Leaf capacity: spans at or under this size become buckets.
  size_t bucket_size = 32;
};

/// Spans at or above this size fan their left child out to the pool;
/// smaller spans recurse inline (task overhead would dominate).
constexpr size_t kParallelCutoff = 4096;

/// Lloyd refinement rounds for kCentroid (after farthest-pair seeding).
/// Small values suffice: the plane only needs the rough cluster
/// direction, not converged centroids.
constexpr size_t kLloydIterations = 3;

/// Maps the build_threads knob to an actual worker count (>= 1).
inline size_t ResolveBuildThreads(size_t requested) {
  if (requested != 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Deterministic per-span seed derivation (splitmix64 finalization over
/// the caller's seed and the span bounds). Parallel builders that need
/// randomness (the VP-tree's vantage picks) seed a fresh generator per
/// node span instead of sharing one sequential stream — every node's
/// random choices then depend only on (seed, lo, hi), never on the
/// order tasks ran in. Spans are unique per node within one build.
inline uint64_t MixSeed(uint64_t seed, uint64_t lo, uint64_t hi) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (2 * lo + 3 * hi + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A phase-1 split decision. Leaves reference their bucket as a span
/// [lo, hi) of the index vector the plan was built over (canonical
/// ascending order); routing nodes carry the KD plane.
struct KdPlanNode {
  bool is_leaf = true;
  uint32_t split_dim = 0;    // Sr
  double split_value = 0.0;  // Sv
  size_t lo = 0;
  size_t hi = 0;
  std::unique_ptr<KdPlanNode> left;
  std::unique_ptr<KdPlanNode> right;
};

/// Centroid (2-means) split of rows idx[lo..hi): seeds two centroids
/// deterministically (c1 = point farthest from the span mean, c2 =
/// point farthest from c1; ties broken toward the earliest span
/// position), runs kLloydIterations rounds of Lloyd assignment
/// (squared-L2 via the batched kernels, ties to centroid 1, means
/// accumulated in span order so floating-point sums are reproducible),
/// then cuts along dim = argmax |c1[d] - c2[d]| at the midpoint.
/// Partitions idx so [lo, boundary) holds rows with coord <= value.
/// Returns false — leaving `idx` untouched — when the span has no
/// spread or the plane fails to separate it; callers fall back to the
/// median split.
template <typename Index, typename RowFn>
bool ChooseCentroidSplit(std::vector<Index>& idx, size_t lo, size_t hi,
                         size_t dimensions, RowFn row, MedianSplit* out) {
  const size_t n = hi - lo;
  if (n < 2) return false;
  auto row_at = [&](size_t j) { return row(idx[lo + j]); };

  // Span mean, accumulated in span order.
  std::vector<double> c1(dimensions, 0.0), c2(dimensions, 0.0);
  {
    std::vector<double> mean(dimensions, 0.0);
    for (size_t i = lo; i < hi; ++i) {
      const double* r = row(idx[i]);
      for (size_t d = 0; d < dimensions; ++d) mean[d] += r[d];
    }
    for (size_t d = 0; d < dimensions; ++d) {
      mean[d] /= static_cast<double>(n);
    }
    // c1 = farthest from the mean; earliest span position on ties.
    size_t far1 = 0;
    double best = -1.0;
    BatchScan(Metric::kL2, mean.data(), dimensions, n, row_at,
              [&](size_t j, double d) {
                if (d > best) {
                  best = d;
                  far1 = j;
                }
              });
    const double* r1 = row(idx[lo + far1]);
    std::copy(r1, r1 + dimensions, c1.begin());
  }
  {
    // c2 = farthest from c1. Zero spread means every row equals c1:
    // nothing to split.
    size_t far2 = 0;
    double best = -1.0;
    BatchScan(Metric::kL2, c1.data(), dimensions, n, row_at,
              [&](size_t j, double d) {
                if (d > best) {
                  best = d;
                  far2 = j;
                }
              });
    if (best <= 0.0) return false;
    const double* r2 = row(idx[lo + far2]);
    std::copy(r2, r2 + dimensions, c2.begin());
  }

  // Lloyd rounds. Assignment distances come from the batched kernels
  // (bit-identical to scalar, so the result is machine-independent up
  // to FP determinism of the build host); means accumulate in span
  // order, which phase 1 guarantees is the same serial or parallel.
  std::vector<double> d1(n), d2(n);
  std::vector<double> s1(dimensions), s2(dimensions);
  for (size_t iter = 0; iter < kLloydIterations; ++iter) {
    BatchScan(Metric::kL2, c1.data(), dimensions, n, row_at,
              [&](size_t j, double d) { d1[j] = d; });
    BatchScan(Metric::kL2, c2.data(), dimensions, n, row_at,
              [&](size_t j, double d) { d2[j] = d; });
    std::fill(s1.begin(), s1.end(), 0.0);
    std::fill(s2.begin(), s2.end(), 0.0);
    size_t n1 = 0, n2 = 0;
    for (size_t j = 0; j < n; ++j) {
      const double* r = row(idx[lo + j]);
      if (d1[j] <= d2[j]) {  // Tie -> centroid 1.
        ++n1;
        for (size_t d = 0; d < dimensions; ++d) s1[d] += r[d];
      } else {
        ++n2;
        for (size_t d = 0; d < dimensions; ++d) s2[d] += r[d];
      }
    }
    if (n1 == 0 || n2 == 0) break;  // Keep the previous centroids.
    for (size_t d = 0; d < dimensions; ++d) {
      c1[d] = s1[d] / static_cast<double>(n1);
      c2[d] = s2[d] / static_cast<double>(n2);
    }
  }

  // The split plane: the axis where the centroids separate most, cut
  // at their midpoint. Lowest dimension wins ties.
  uint32_t dim = 0;
  double sep = -1.0;
  for (size_t d = 0; d < dimensions; ++d) {
    double gap = std::fabs(c1[d] - c2[d]);
    if (gap > sep) {
      sep = gap;
      dim = static_cast<uint32_t>(d);
    }
  }
  if (sep <= 0.0) return false;
  const double value = (c1[dim] + c2[dim]) / 2.0;

  // The plane must actually cut the span; degenerate planes (every row
  // on one side) send the caller to the median fallback.
  size_t n_left = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (row(idx[i])[dim] <= value) ++n_left;
  }
  if (n_left == 0 || n_left == n) return false;
  std::partition(idx.begin() + static_cast<ptrdiff_t>(lo),
                 idx.begin() + static_cast<ptrdiff_t>(hi),
                 [&](Index x) { return row(x)[dim] <= value; });
  out->dim = dim;
  out->value = value;
  out->boundary = lo + n_left;
  return true;
}

/// One split decision: policy first, median fallback. Returns false
/// when the span must become a leaf (at or under bucket size, or
/// inseparable).
template <typename Index, typename RowFn>
bool ChooseSplitForPolicy(std::vector<Index>& idx, size_t lo, size_t hi,
                          size_t dimensions, RowFn row,
                          const BulkBuildOptions& opts, MedianSplit* out) {
  if (hi - lo <= opts.bucket_size) return false;
  if (opts.policy == SplitPolicy::kCentroid &&
      ChooseCentroidSplit(idx, lo, hi, dimensions, row, out)) {
    return true;
  }
  return ChooseMedianSplit(idx, lo, hi, dimensions, row, out);
}

/// Phase-1 recursion: fills `node` with the split decision for
/// idx[lo..hi), fanning the left child out to `group` when the span is
/// large enough (right child continues on this thread — the task that
/// owns a span always has work of its own). With a null group
/// everything runs inline; the result is identical either way.
template <typename Index, typename RowFn>
void FillKdPlanNode(KdPlanNode* node, std::vector<Index>* idx, size_t lo,
                    size_t hi, size_t dimensions, RowFn row,
                    BulkBuildOptions opts, TaskGroup* group) {
  MedianSplit split;
  if (!ChooseSplitForPolicy(*idx, lo, hi, dimensions, row, opts, &split)) {
    // Canonical bucket order: ascending index, whatever order the
    // partitions above left the span in. This is what makes leaves —
    // and the snapshot bytes — independent of the split policy's
    // internal permutations and of the nth_element/sort choice in the
    // median path.
    std::sort(idx->begin() + static_cast<ptrdiff_t>(lo),
              idx->begin() + static_cast<ptrdiff_t>(hi));
    node->is_leaf = true;
    node->lo = lo;
    node->hi = hi;
    return;
  }
  node->is_leaf = false;
  node->split_dim = split.dim;
  node->split_value = split.value;
  node->left = std::make_unique<KdPlanNode>();
  node->right = std::make_unique<KdPlanNode>();
  KdPlanNode* left = node->left.get();
  KdPlanNode* right = node->right.get();
  const size_t boundary = split.boundary;
  if (group != nullptr && hi - lo >= kParallelCutoff) {
    group->Run([left, idx, lo, boundary, dimensions, row, opts, group]() {
      FillKdPlanNode(left, idx, lo, boundary, dimensions, row, opts, group);
    });
    FillKdPlanNode(right, idx, boundary, hi, dimensions, row, opts, group);
    return;
  }
  FillKdPlanNode(left, idx, lo, boundary, dimensions, row, opts, group);
  FillKdPlanNode(right, idx, boundary, hi, dimensions, row, opts, group);
}

/// Builds the split plan for idx (permuting it; leaves reference its
/// final order). Spawns a pool only when the resolved thread count and
/// the input size warrant one. Returns null for an empty input.
template <typename Index, typename RowFn>
std::unique_ptr<KdPlanNode> BuildKdPlan(std::vector<Index>& idx,
                                        size_t dimensions, RowFn row,
                                        const BulkBuildOptions& opts) {
  if (idx.empty()) return nullptr;
  auto root = std::make_unique<KdPlanNode>();
  size_t threads = ResolveBuildThreads(opts.build_threads);
  if (threads > 1 && idx.size() >= kParallelCutoff) {
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    FillKdPlanNode(root.get(), &idx, 0, idx.size(), dimensions, row, opts,
                   &group);
    group.Wait();
  } else {
    FillKdPlanNode(root.get(), &idx, 0, idx.size(), dimensions, row, opts,
                   nullptr);
  }
  return root;
}

}  // namespace semtree

#endif  // SEMTREE_CORE_BULK_BUILD_H_
