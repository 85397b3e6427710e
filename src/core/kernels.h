// Copyright 2026 The SemTree Authors
//
// The batched multi-metric distance-kernel layer. core/distance.h keeps
// the scalar Euclidean primitive; this header is the hot-path surface
// every backend's leaf scan funnels through: one query evaluated
// against a whole block of PointStore rows per call (one-vs-many),
// under a Metric selected per index.
//
// Batching model (DESIGN.md §7): the one-vs-many kernels process rows
// four at a time with one independent accumulator chain per row, the
// tail falling back to the per-row scalar loop. Four independent
// chains hide floating-point add latency (the scalar loop is bound by
// its single serial accumulator), which is where the throughput win
// comes from — bench_micro_distance asserts it. Within each row the
// accumulation order is exactly the scalar kernel's (ascending
// dimension, one running sum), so every batched distance is
// bit-identical to its scalar counterpart and exact L2 searches stay
// byte-identical whether or not a backend batches.
//
// Metric semantics:
//  * kL2     — Euclidean distance (the default; FastMap's embedded
//              space is Euclidean by construction).
//  * kL1     — Manhattan distance.
//  * kCosine — angular *chord* distance sqrt(2·(1−cosθ)), i.e. the
//              Euclidean distance between the direction vectors. The
//              raw "1−cos" dissimilarity violates the triangle
//              inequality, which metric-tree pruning relies on; the
//              chord form is a true (pseudo-)metric, so VP-/M-tree
//              searches stay exact. Zero vectors have no direction:
//              d(0,0) = 0 and d(0,x) = sqrt(2) (treated as
//              orthogonal), which preserves the triangle inequality.
//              Rows whose norms or dot product over/underflow double
//              range (coordinates near 1e±160) are recomputed on a
//              scaled copy — cosine only sees directions — so finite
//              inputs can never produce a NaN distance.
//
// All three metrics satisfy symmetry, zero self-distance and the
// triangle inequality (cosine as chord), so every backend prunes
// soundly under every metric — except that the KD-style walks' region
// bound has no cosine analogue; see RegionLowerBound.

#ifndef SEMTREE_CORE_KERNELS_H_
#define SEMTREE_CORE_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace semtree {

/// The distance function an index evaluates. Fixed per index at
/// construction (SpatialIndex::set_metric) and persisted with the
/// snapshot tuning section, so a warm-restarted index keeps its
/// geometry.
enum class Metric : uint8_t {
  kL2 = 0,
  kL1 = 1,
  kCosine = 2,
};

/// Human-readable metric name (bench CSV series, error messages).
std::string_view MetricName(Metric metric);

/// Validated narrowing from a persisted byte; false on unknown values.
bool MetricFromU8(uint8_t raw, Metric* out);

/// Scalar one-vs-one distance between two rows of length n under
/// `metric`. Bit-identical to the corresponding lane of the batched
/// kernels below; for kL2 it is bit-identical to EuclideanDistance.
double MetricDistance(Metric metric, const double* a, const double* b,
                      size_t n);

/// Squared L2 norm of one row (ascending-index accumulation, the
/// order the cosine kernels use).
double SquaredNorm(const double* a, size_t n);

/// Cosine chord distance with the query's squared norm precomputed
/// (`SquaredNorm(a, n)`). Bit-identical to
/// `MetricDistance(kCosine, a, b, n)`; oracle-style callers that
/// evaluate one query against many objects hoist the query norm once
/// instead of paying an O(n) pass per distance.
double CosineChordDistance(const double* a, double a_norm2,
                           const double* b, size_t n);

/// One-vs-many over a contiguous row-major block: distances from
/// `query` to rows[r*dim .. r*dim+dim) for r in [0, count), written to
/// out[0..count). Leaf scans use the gathered form below; this one
/// serves callers that own a flat block.
void BatchDistance(Metric metric, const double* query, size_t dim,
                   const double* rows, size_t count, double* out);

/// One-vs-many over gathered rows: `rows[r]` points at row r. Every
/// leaf scan uses this form: a bulk-built KD-tree leaf's rows are
/// adjacent (DESIGN.md §8), but inserted points land in append or
/// free-list order and SemTree partitions keep input order, so a
/// bucket's rows are not adjacent in general. Same unrolling and
/// bit-exactness as the contiguous form.
void BatchDistance(Metric metric, const double* query, size_t dim,
                   const double* const* rows, size_t count, double* out);

/// True when the one-vs-many kernels dispatch to the runtime-checked
/// SIMD fast path on this machine (x86 AVX). The portable 4-way
/// unrolled fallback produces bit-identical results either way; only
/// throughput differs, so bench assertions key off this.
bool BatchKernelsUseSimd();

/// Rows a leaf scan gathers per kernel call: big enough to amortize
/// the dispatch, small enough for the pointer/distance scratch to live
/// on the stack.
inline constexpr size_t kDistanceBatch = 64;

/// Admissible lower bound on the distance from a query to anything in
/// an axis-aligned region, given `gap[d]` = the query's distance to
/// the region along dimension d (0 where the query lies inside the
/// region's extent; a KD walk sets |query[Sr] − Sv| when it crosses a
/// splitting plane, DESIGN.md §6):
///  * kL2: the square root of the summed squared gaps;
///  * kL1: the sum of the gaps;
///  * kCosine: 0 — the chord distance does not decompose over axes
///    (angles do not), so the search stays exact but degrades toward
///    an exhaustive scan. Prefer the metric trees for cosine.
/// The sums run in ascending dimension order, the scalar kernel's
/// order, and every gap is at most the matching |query[d] − p[d]| of a
/// point p in the region after rounding, so the bound never exceeds
/// MetricDistance to such a point, bit for bit. Callers recompute it
/// from the whole gap vector; a running sum that subtracts a replaced
/// gap would lose that guarantee.
double RegionLowerBound(Metric metric, const double* gap, size_t dim);

/// Chunked driver for batched leaf/arena scans: gathers row pointers
/// kDistanceBatch at a time into stack scratch, runs the batched
/// kernel, and hands each (index, distance) pair to `sink` in order.
/// `row_at(i)` returns the i-th row pointer; `sink(i, d)` consumes its
/// distance. Callers cap `count` with BudgetGauge::ChargeDistances
/// first, so budget accounting matches a per-point scalar loop
/// exactly.
template <typename RowAt, typename Sink>
void BatchScan(Metric metric, const double* query, size_t dim,
               size_t count, RowAt row_at, Sink sink) {
  const double* rows[kDistanceBatch];
  double dist[kDistanceBatch];
  for (size_t base = 0; base < count; base += kDistanceBatch) {
    size_t m = count - base;
    if (m > kDistanceBatch) m = kDistanceBatch;
    for (size_t j = 0; j < m; ++j) rows[j] = row_at(base + j);
    BatchDistance(metric, query, dim, rows, m, dist);
    for (size_t j = 0; j < m; ++j) sink(base + j, dist[j]);
  }
}

/// True when every coordinate is finite (no NaN/Inf). Insert and query
/// entry points reject non-finite rows up front: a single NaN distance
/// would otherwise poison best-first frontier ordering and k-NN heap
/// invariants undetected.
bool AllFinite(const double* coords, size_t n);

inline bool AllFinite(const std::vector<double>& coords) {
  return AllFinite(coords.data(), coords.size());
}

/// Status form of AllFinite shared by every Insert / bulk-load entry
/// point, so the rejection policy (and the message tests assert on)
/// lives in one place.
Status CheckFiniteCoords(const std::vector<double>& coords);

}  // namespace semtree

#endif  // SEMTREE_CORE_KERNELS_H_
