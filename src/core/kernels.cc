// Copyright 2026 The SemTree Authors
//
// NOTE: this file is compiled with -ffp-contract=off (see
// CMakeLists.txt). The byte-identity contract — batched L2 distances
// equal the historical scalar EuclideanDistance bit for bit — forbids
// fusing d*d + s into an FMA on targets that have one, because the
// baseline scalar code (x86-64 SSE2) rounds the product and the sum
// separately. RegionLowerBound's admissibility rests on the same
// separately rounded operations.

#include "core/kernels.h"

#include <algorithm>

#include "core/distance.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SEMTREE_KERNELS_X86_SIMD 1
#include <immintrin.h>
#endif

namespace semtree {

namespace {

// Chord distance of a zero vector against a non-zero one: the zero
// vector has no direction, so it is treated as orthogonal to
// everything (sqrt(2), the exact double nearest it). Keeps the
// triangle inequality: sqrt(2) <= sqrt(2) + chord and chord <= 2 <=
// 2*sqrt(2).
constexpr double kOrthogonalChord = 1.4142135623730951;

// Final combine of the cosine kernel. Shared by the scalar and the
// batched paths so the result is bit-identical regardless of how the
// three running sums were produced (each sum's own accumulation order
// is fixed: ascending dimension). Precondition: the sums passed
// CosineSumsDegenerate below — `dot` finite, `na*nb` finite and
// nonzero. sqrt(na*nb) keeps self-distance exactly 0 (the square of a
// double roots back exactly).
inline double ChordFromSums(double dot, double query_norm2,
                            double row_norm2) {
  double cosine = dot / std::sqrt(query_norm2 * row_norm2);
  // Rounding can push |cosine| marginally past 1; clamp so the sqrt
  // argument stays in [0, 4].
  double c = 1.0 - cosine;
  if (c < 0.0) c = 0.0;
  if (c > 2.0) c = 2.0;
  return std::sqrt(2.0 * c);
}

inline double L1Scalar(const double* a, const double* b, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

// True when the accumulated cosine sums cannot be combined reliably:
// the dot or the norms-squared product over/underflowed double range
// (finite inputs near 1e±160 do this), or a norm is 0 — which is
// either a genuine zero vector or an underflow. All of these are
// settled by the scaled recompute below.
inline bool CosineSumsDegenerate(double dot, double na, double nb) {
  double denom2 = na * nb;  // NaN/inf norms propagate into denom2.
  return !std::isfinite(dot) || !std::isfinite(denom2) ||
         denom2 == 0.0;
}

// Scale-invariant fallback: cosine only sees directions, so dividing
// each vector by its max |coordinate| first keeps every sum within
// [−n, n] without changing the angle. Only runs on degenerate rows
// (extreme magnitudes or zero vectors), never on the fast path.
double RescaledChord(const double* a, const double* b, size_t n) {
  double amax = 0.0, bmax = 0.0;
  for (size_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::fabs(a[i]));
    bmax = std::max(bmax, std::fabs(b[i]));
  }
  if (amax == 0.0 || bmax == 0.0) {
    return (amax == 0.0 && bmax == 0.0) ? 0.0 : kOrthogonalChord;
  }
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double x = a[i] / amax;
    double y = b[i] / bmax;
    dot += x * y;
    na += x * x;
    nb += y * y;
  }
  return ChordFromSums(dot, na, nb);
}

inline double CosineScalar(const double* q, double query_norm2,
                           const double* b, size_t n) {
  double dot = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dot += q[i] * b[i];
    nb += b[i] * b[i];
  }
  if (CosineSumsDegenerate(dot, query_norm2, nb)) {
    return RescaledChord(q, b, n);
  }
  return ChordFromSums(dot, query_norm2, nb);
}

// Row accessors that let one batched loop serve both the contiguous
// (row-major block) and the gathered (pointer-per-row) entry points.
struct ContiguousRows {
  const double* base;
  size_t dim;
  const double* operator[](size_t r) const { return base + r * dim; }
};
struct GatheredRows {
  const double* const* rows;
  const double* operator[](size_t r) const { return rows[r]; }
};

// The 4-way unrolled one-vs-many loops. Each row keeps its own
// accumulator chain iterating dimensions in ascending order — exactly
// the scalar kernel's operation sequence per row, so results are
// bit-identical to the scalar calls while the four independent chains
// hide FP-add latency. The tail (count % 4 rows) is the
// runtime-checked fallback: it runs the plain scalar kernel.

template <typename Rows>
void BatchL2(const double* q, size_t dim, Rows rows, size_t count,
             double* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* p0 = rows[r];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double qi = q[i];
      const double d0 = qi - p0[i];
      const double d1 = qi - p1[i];
      const double d2 = qi - p2[i];
      const double d3 = qi - p3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[r] = std::sqrt(s0);
    out[r + 1] = std::sqrt(s1);
    out[r + 2] = std::sqrt(s2);
    out[r + 3] = std::sqrt(s3);
  }
  for (; r < count; ++r) out[r] = EuclideanDistance(q, rows[r], dim);
}

template <typename Rows>
void BatchL1(const double* q, size_t dim, Rows rows, size_t count,
             double* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* p0 = rows[r];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double qi = q[i];
      s0 += std::fabs(qi - p0[i]);
      s1 += std::fabs(qi - p1[i]);
      s2 += std::fabs(qi - p2[i]);
      s3 += std::fabs(qi - p3[i]);
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = L1Scalar(q, rows[r], dim);
}

template <typename Rows>
void BatchCosine(const double* q, size_t dim, Rows rows, size_t count,
                 double* out) {
  // The query's own norm is row-independent; computing it once (in the
  // same ascending-dimension order the scalar kernel uses) yields the
  // same bits as recomputing it per row.
  const double query_norm2 = SquaredNorm(q, dim);
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* p0 = rows[r];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    double dot0 = 0.0, dot1 = 0.0, dot2 = 0.0, dot3 = 0.0;
    double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double qi = q[i];
      dot0 += qi * p0[i];
      n0 += p0[i] * p0[i];
      dot1 += qi * p1[i];
      n1 += p1[i] * p1[i];
      dot2 += qi * p2[i];
      n2 += p2[i] * p2[i];
      dot3 += qi * p3[i];
      n3 += p3[i] * p3[i];
    }
    out[r] = CosineSumsDegenerate(dot0, query_norm2, n0)
                 ? RescaledChord(q, p0, dim)
                 : ChordFromSums(dot0, query_norm2, n0);
    out[r + 1] = CosineSumsDegenerate(dot1, query_norm2, n1)
                     ? RescaledChord(q, p1, dim)
                     : ChordFromSums(dot1, query_norm2, n1);
    out[r + 2] = CosineSumsDegenerate(dot2, query_norm2, n2)
                     ? RescaledChord(q, p2, dim)
                     : ChordFromSums(dot2, query_norm2, n2);
    out[r + 3] = CosineSumsDegenerate(dot3, query_norm2, n3)
                     ? RescaledChord(q, p3, dim)
                     : ChordFromSums(dot3, query_norm2, n3);
  }
  for (; r < count; ++r) {
    out[r] = CosineScalar(q, query_norm2, rows[r], dim);
  }
}

#if SEMTREE_KERNELS_X86_SIMD

// Rebases a row accessor so the AVX path's row tail can reuse the
// plain fallback kernel.
template <typename Rows>
struct RowsOffset {
  Rows rows;
  size_t base;
  const double* operator[](size_t j) const { return rows[base + j]; }
};

// ------------------------------------------------------------------
// AVX fast path for L2 (the hot default metric). Eight rows per
// iteration in two independent accumulator chains; dims are processed
// four at a time by loading four consecutive doubles per row and
// transposing the 4x4 block in registers, so each accumulator lane is
// one row summing squared diffs in ascending-dimension order — the
// exact scalar operation sequence, hence bit-identical results (mul
// and add stay separate ops; see the -ffp-contract=off note above).
// vsqrtpd is IEEE-correctly rounded like sqrtsd, so the vectorized
// square root preserves bits too.

__attribute__((target("avx"))) static inline void Transpose4(
    __m256d r0, __m256d r1, __m256d r2, __m256d r3, __m256d* c0,
    __m256d* c1, __m256d* c2, __m256d* c3) {
  __m256d t0 = _mm256_unpacklo_pd(r0, r1);
  __m256d t1 = _mm256_unpackhi_pd(r0, r1);
  __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  *c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  *c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  *c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  *c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

template <typename Rows>
__attribute__((target("avx"))) void BatchL2Avx(const double* q,
                                               size_t dim, Rows rows,
                                               size_t count,
                                               double* out) {
  size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    const double* p0 = rows[r];
    const double* p1 = rows[r + 1];
    const double* p2 = rows[r + 2];
    const double* p3 = rows[r + 3];
    const double* p4 = rows[r + 4];
    const double* p5 = rows[r + 5];
    const double* p6 = rows[r + 6];
    const double* p7 = rows[r + 7];
    __m256d acc_a = _mm256_setzero_pd();
    __m256d acc_b = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      __m256d a0, a1, a2, a3, b0, b1, b2, b3;
      Transpose4(_mm256_loadu_pd(p0 + i), _mm256_loadu_pd(p1 + i),
                 _mm256_loadu_pd(p2 + i), _mm256_loadu_pd(p3 + i), &a0,
                 &a1, &a2, &a3);
      Transpose4(_mm256_loadu_pd(p4 + i), _mm256_loadu_pd(p5 + i),
                 _mm256_loadu_pd(p6 + i), _mm256_loadu_pd(p7 + i), &b0,
                 &b1, &b2, &b3);
      __m256d q0 = _mm256_broadcast_sd(q + i);
      __m256d q1 = _mm256_broadcast_sd(q + i + 1);
      __m256d q2 = _mm256_broadcast_sd(q + i + 2);
      __m256d q3 = _mm256_broadcast_sd(q + i + 3);
      __m256d da, db;
      da = _mm256_sub_pd(q0, a0);
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
      db = _mm256_sub_pd(q0, b0);
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
      da = _mm256_sub_pd(q1, a1);
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
      db = _mm256_sub_pd(q1, b1);
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
      da = _mm256_sub_pd(q2, a2);
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
      db = _mm256_sub_pd(q2, b2);
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
      da = _mm256_sub_pd(q3, a3);
      acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
      db = _mm256_sub_pd(q3, b3);
      acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
    }
    alignas(32) double sa[4], sb[4];
    _mm256_store_pd(sa, acc_a);
    _mm256_store_pd(sb, acc_b);
    // Dim tail (dim % 4): continue each row's accumulator in order.
    for (; i < dim; ++i) {
      const double qi = q[i];
      double d;
      d = qi - p0[i];
      sa[0] += d * d;
      d = qi - p1[i];
      sa[1] += d * d;
      d = qi - p2[i];
      sa[2] += d * d;
      d = qi - p3[i];
      sa[3] += d * d;
      d = qi - p4[i];
      sb[0] += d * d;
      d = qi - p5[i];
      sb[1] += d * d;
      d = qi - p6[i];
      sb[2] += d * d;
      d = qi - p7[i];
      sb[3] += d * d;
    }
    _mm256_storeu_pd(out + r, _mm256_sqrt_pd(_mm256_load_pd(sa)));
    _mm256_storeu_pd(out + r + 4, _mm256_sqrt_pd(_mm256_load_pd(sb)));
  }
  // Row tail: the plain 4-way/scalar fallback finishes the remainder.
  if (r < count) {
    BatchL2(q, dim, RowsOffset<Rows>{rows, r}, count - r, out + r);
  }
}

// The runtime check of the dispatch: AVX is a property of the machine
// the binary *runs* on, not the one it was built on.
// __builtin_cpu_supports only reports AVX when the OS enables the ymm
// state, so a positive answer means the path is safe to call.
bool DetectAvx() { return __builtin_cpu_supports("avx") > 0; }

#endif  // SEMTREE_KERNELS_X86_SIMD

template <typename Rows>
void BatchDispatch(Metric metric, const double* q, size_t dim, Rows rows,
                   size_t count, double* out) {
  switch (metric) {
    case Metric::kL2:
#if SEMTREE_KERNELS_X86_SIMD
      // Runtime-checked fast path; the plain loop below is the
      // fallback for machines without usable AVX.
      if (BatchKernelsUseSimd() && dim >= 4 && count >= 8) {
        BatchL2Avx(q, dim, rows, count, out);
        return;
      }
#endif
      BatchL2(q, dim, rows, count, out);
      return;
    case Metric::kL1:
      BatchL1(q, dim, rows, count, out);
      return;
    case Metric::kCosine:
      BatchCosine(q, dim, rows, count, out);
      return;
  }
  // Unknown metric values cannot be constructed through the public
  // surface (MetricFromU8 validates persisted bytes); treat as L2.
  BatchL2(q, dim, rows, count, out);
}

}  // namespace

std::string_view MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "l2";
    case Metric::kL1:
      return "l1";
    case Metric::kCosine:
      return "cosine";
  }
  return "unknown";
}

bool MetricFromU8(uint8_t raw, Metric* out) {
  switch (raw) {
    case uint8_t(Metric::kL2):
    case uint8_t(Metric::kL1):
    case uint8_t(Metric::kCosine):
      *out = static_cast<Metric>(raw);
      return true;
  }
  return false;
}

double MetricDistance(Metric metric, const double* a, const double* b,
                      size_t n) {
  switch (metric) {
    case Metric::kL2:
      return EuclideanDistance(a, b, n);
    case Metric::kL1:
      return L1Scalar(a, b, n);
    case Metric::kCosine:
      return CosineScalar(a, SquaredNorm(a, n), b, n);
  }
  return EuclideanDistance(a, b, n);
}

double RegionLowerBound(Metric metric, const double* gap, size_t dim) {
  double sum = 0.0;
  switch (metric) {
    case Metric::kL2:
      for (size_t i = 0; i < dim; ++i) sum += gap[i] * gap[i];
      return std::sqrt(sum);
    case Metric::kL1:
      for (size_t i = 0; i < dim; ++i) sum += gap[i];
      return sum;
    case Metric::kCosine:
      return 0.0;
  }
  return 0.0;
}

double SquaredNorm(const double* a, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] * a[i];
  return sum;
}

double CosineChordDistance(const double* a, double a_norm2,
                           const double* b, size_t n) {
  return CosineScalar(a, a_norm2, b, n);
}

void BatchDistance(Metric metric, const double* query, size_t dim,
                   const double* rows, size_t count, double* out) {
  BatchDispatch(metric, query, dim, ContiguousRows{rows, dim}, count, out);
}

void BatchDistance(Metric metric, const double* query, size_t dim,
                   const double* const* rows, size_t count, double* out) {
  BatchDispatch(metric, query, dim, GatheredRows{rows}, count, out);
}

bool BatchKernelsUseSimd() {
#if SEMTREE_KERNELS_X86_SIMD
  static const bool has_avx = DetectAvx();
  return has_avx;
#else
  return false;
#endif
}

bool AllFinite(const double* coords, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(coords[i])) return false;
  }
  return true;
}

Status CheckFiniteCoords(const std::vector<double>& coords) {
  if (!AllFinite(coords)) {
    return Status::InvalidArgument(
        "point has non-finite (NaN/Inf) coordinates");
  }
  return Status::OK();
}

}  // namespace semtree
