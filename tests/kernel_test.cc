// Copyright 2026 The SemTree Authors
//
// Tests for the batched multi-metric distance-kernel layer
// (core/kernels.h, DESIGN.md §7): scalar metric semantics, bit-exact
// batched/scalar equivalence across unroll boundaries, backend
// byte-identity on L2 and cross-backend agreement on every metric,
// metric round-trips through snapshots, non-finite input rejection,
// and the degenerate-input surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/backends.h"
#include "core/distance.h"
#include "core/kernels.h"
#include "core/spatial_index.h"
#include "kdtree/kdtree.h"
#include "kdtree/linear_scan.h"
#include "persist/index_snapshot.h"

namespace semtree {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::vector<double>> RandomVectors(size_t n, size_t dims,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out(n);
  for (auto& v : out) {
    v.resize(dims);
    for (double& c : v) c = rng.UniformDouble(-2.0, 2.0);
  }
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------
// Scalar metric semantics

TEST(MetricTest, NamesAndParsing) {
  EXPECT_EQ(MetricName(Metric::kL2), "l2");
  EXPECT_EQ(MetricName(Metric::kL1), "l1");
  EXPECT_EQ(MetricName(Metric::kCosine), "cosine");
  Metric m = Metric::kL2;
  EXPECT_TRUE(MetricFromU8(1, &m));
  EXPECT_EQ(m, Metric::kL1);
  EXPECT_FALSE(MetricFromU8(7, &m));
  EXPECT_EQ(m, Metric::kL1);  // Unchanged on failure.
}

TEST(MetricTest, KnownValues) {
  const double a[] = {0.0, 0.0};
  const double b[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kL2, a, b, 2), 5.0);
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kL1, a, b, 2), 7.0);
  // L2 is the historical kernel, bit for bit.
  auto rows = RandomVectors(2, 16, 3);
  EXPECT_TRUE(SameBits(
      MetricDistance(Metric::kL2, rows[0].data(), rows[1].data(), 16),
      EuclideanDistance(rows[0].data(), rows[1].data(), 16)));
}

TEST(MetricTest, CosineIsAngularChord) {
  const double x[] = {1.0, 0.0};
  const double y[] = {0.0, 2.0};     // Orthogonal: chord = sqrt(2).
  const double mx[] = {-3.0, 0.0};   // Opposite: chord = 2.
  const double x10[] = {10.0, 0.0};  // Parallel: chord = 0.
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, x, y, 2),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, x, mx, 2), 2.0);
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, x, x10, 2), 0.0);
}

TEST(MetricTest, CosineZeroVectorSemantics) {
  const double zero[] = {0.0, 0.0};
  const double x[] = {1.0, 1.0};
  // A zero vector has no direction: orthogonal to everything,
  // coincident with itself.
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, zero, x, 2),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, x, zero, 2),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, zero, zero, 2), 0.0);
}

TEST(MetricTest, CosineSurvivesExtremeMagnitudes) {
  // Norm-squared products overflow/underflow for finite vectors near
  // the double range limits; the chord must still reflect the angle,
  // not collapse to sqrt(2) (regression: dot/sqrt(na*nb) with na*nb
  // = inf made every cosine 0).
  const double big_x[] = {1e160, 0.0};
  const double big_y[] = {0.0, 2e160};
  const double big_x2[] = {3e160, 0.0};
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, big_x, big_x2, 2),
                   0.0);
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, big_x, big_y, 2),
                   std::sqrt(2.0));
  const double tiny_x[] = {1e-180, 0.0};
  const double tiny_y[] = {0.0, 1e-180};
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, tiny_x, tiny_x, 2),
                   0.0);
  EXPECT_DOUBLE_EQ(MetricDistance(Metric::kCosine, tiny_x, tiny_y, 2),
                   std::sqrt(2.0));
}

TEST(MetricTest, SymmetryAndSelfDistance) {
  auto rows = RandomVectors(8, 7, 11);
  for (Metric m : {Metric::kL2, Metric::kL1, Metric::kCosine}) {
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(MetricDistance(m, rows[i].data(), rows[i].data(), 7),
                0.0);
      for (size_t j = i + 1; j < rows.size(); ++j) {
        EXPECT_TRUE(SameBits(
            MetricDistance(m, rows[i].data(), rows[j].data(), 7),
            MetricDistance(m, rows[j].data(), rows[i].data(), 7)));
      }
    }
  }
}

TEST(MetricTest, ZeroDimensionRowsAreCoincident) {
  // d = 0 is a degenerate but legal kernel input: every row is the
  // same (empty) point.
  const double* none = nullptr;
  for (Metric m : {Metric::kL2, Metric::kL1, Metric::kCosine}) {
    EXPECT_EQ(MetricDistance(m, none, none, 0), 0.0);
  }
}

// ---------------------------------------------------------------------
// Batched kernels: bit-exact vs scalar, across unroll boundaries

TEST(BatchDistanceTest, BitIdenticalToScalarAllMetricsAndCounts) {
  const size_t dims[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 32};
  const size_t counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63,
                           64, 65, 200};
  for (size_t dim : dims) {
    // One flat arena reused for every count.
    Rng rng(100 + dim);
    std::vector<double> block(200 * dim);
    for (double& v : block) v = rng.UniformDouble(-2.0, 2.0);
    std::vector<double> query(dim);
    for (double& v : query) v = rng.UniformDouble(-2.0, 2.0);
    std::vector<const double*> rows(200);
    for (size_t r = 0; r < 200; ++r) rows[r] = block.data() + r * dim;

    for (Metric m : {Metric::kL2, Metric::kL1, Metric::kCosine}) {
      for (size_t count : counts) {
        std::vector<double> got(count + 1, -1.0);
        BatchDistance(m, query.data(), dim, block.data(), count,
                      got.data());
        for (size_t r = 0; r < count; ++r) {
          double want = MetricDistance(m, query.data(), rows[r], dim);
          ASSERT_TRUE(SameBits(got[r], want))
              << MetricName(m) << " contiguous dim=" << dim
              << " count=" << count << " row=" << r;
        }
        std::vector<double> gathered(count + 1, -1.0);
        BatchDistance(m, query.data(), dim, rows.data(), count,
                      gathered.data());
        for (size_t r = 0; r < count; ++r) {
          ASSERT_TRUE(SameBits(gathered[r], got[r]))
              << MetricName(m) << " gather dim=" << dim
              << " count=" << count << " row=" << r;
        }
      }
    }
  }
}

TEST(BatchDistanceTest, BatchScanVisitsEveryRowInOrder) {
  const size_t dim = 5;
  // More rows than kDistanceBatch so chunking is exercised.
  const size_t count = kDistanceBatch * 2 + 7;
  auto rows = RandomVectors(count, dim, 17);
  std::vector<double> query = RandomVectors(1, dim, 18)[0];
  std::vector<size_t> seen;
  BatchScan(
      Metric::kL2, query.data(), dim, count,
      [&](size_t j) { return rows[j].data(); },
      [&](size_t j, double d) {
        seen.push_back(j);
        EXPECT_TRUE(SameBits(
            d, EuclideanDistance(query.data(), rows[j].data(), dim)));
      });
  ASSERT_EQ(seen.size(), count);
  for (size_t j = 0; j < count; ++j) EXPECT_EQ(seen[j], j);
}

// ---------------------------------------------------------------------
// Region lower bound (RegionLowerBound, DESIGN.md §6)

// The query's gap to the box [lo, hi] along each axis, as a KD walk
// computes it: |q[d] - plane| for the box face between the query and
// the box, 0 where the query lies within the box's extent.
std::vector<double> BoxGaps(const std::vector<double>& q,
                            const std::vector<double>& lo,
                            const std::vector<double>& hi) {
  std::vector<double> gap(q.size(), 0.0);
  for (size_t d = 0; d < q.size(); ++d) {
    if (q[d] < lo[d]) gap[d] = std::fabs(q[d] - lo[d]);
    if (q[d] > hi[d]) gap[d] = std::fabs(q[d] - hi[d]);
  }
  return gap;
}

// Checks the bound against points of the box: random interior points,
// points with coordinates exactly on the faces, the corners, and the
// box point nearest the query, which attains the bound bit for bit.
// No tolerance anywhere: the leaf scans compare these very doubles.
void ExpectAdmissible(Metric m, const std::vector<double>& q,
                      const std::vector<double>& lo,
                      const std::vector<double>& hi, Rng* rng) {
  const size_t dim = q.size();
  std::vector<double> gap = BoxGaps(q, lo, hi);
  double bound = RegionLowerBound(m, gap.data(), dim);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 24; ++i) {
    std::vector<double> p(dim);
    for (size_t d = 0; d < dim; ++d) {
      switch (rng->Uniform(3)) {
        case 0:
          p[d] = lo[d];
          break;
        case 1:
          p[d] = hi[d];
          break;
        default:
          p[d] = lo[d] + (hi[d] - lo[d]) * rng->UniformDouble(0.0, 1.0);
          p[d] = std::min(std::max(p[d], lo[d]), hi[d]);
      }
    }
    points.push_back(std::move(p));
  }
  std::vector<double> nearest(dim);
  for (size_t d = 0; d < dim; ++d) {
    nearest[d] = std::min(std::max(q[d], lo[d]), hi[d]);
  }
  EXPECT_TRUE(
      SameBits(bound, MetricDistance(m, q.data(), nearest.data(), dim)))
      << MetricName(m);
  points.push_back(nearest);
  std::vector<const double*> rows;
  for (const auto& p : points) {
    EXPECT_LE(bound, MetricDistance(m, q.data(), p.data(), dim))
        << MetricName(m);
    rows.push_back(p.data());
  }
  // The leaf scans use the batched kernels (SIMD for >= 8 rows).
  std::vector<double> batched(rows.size());
  BatchDistance(m, q.data(), dim, rows.data(), rows.size(), batched.data());
  for (double d : batched) EXPECT_LE(bound, d) << MetricName(m);
}

TEST(RegionBoundTest, AdmissibleBitForBitOnRandomRegions) {
  Rng rng(71);
  for (double scale : {1.0, 1e150, -1e150}) {
    for (int trial = 0; trial < 200; ++trial) {
      size_t dim = 1 + rng.Uniform(9);
      std::vector<double> q(dim), lo(dim), hi(dim);
      for (size_t d = 0; d < dim; ++d) {
        double a = scale * rng.UniformDouble(-2.0, 2.0);
        double b = scale * rng.UniformDouble(-2.0, 2.0);
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b);
        // The query sits on a face now and then: a plane gap of 0.
        switch (rng.Uniform(4)) {
          case 0:
            q[d] = lo[d];
            break;
          case 1:
            q[d] = hi[d];
            break;
          default:
            q[d] = scale * rng.UniformDouble(-3.0, 3.0);
        }
      }
      for (Metric m : {Metric::kL2, Metric::kL1}) {
        ExpectAdmissible(m, q, lo, hi, &rng);
      }
    }
  }
}

TEST(RegionBoundTest, SignedZerosAndPlanesThroughZero) {
  Rng rng(73);
  // A query at -0.0 against planes at +0.0 (and the reverse) has gap 0
  // on those axes; points on the planes carry either zero.
  const std::vector<double> q = {-0.0, 0.0, -0.0, 1.5};
  const std::vector<double> lo = {0.0, -1.0, -0.0, -0.0};
  const std::vector<double> hi = {1.0, -0.0, 0.0, 1.0};
  for (Metric m : {Metric::kL2, Metric::kL1}) {
    std::vector<double> gap = BoxGaps(q, lo, hi);
    EXPECT_EQ(gap, (std::vector<double>{0.0, 0.0, 0.0, 0.5}));
    EXPECT_EQ(RegionLowerBound(m, gap.data(), gap.size()), 0.5);
    ExpectAdmissible(m, q, lo, hi, &rng);
  }
}

TEST(RegionBoundTest, CosineBoundIsZero) {
  const std::vector<double> gap = {3.0, 4.0, 1e150};
  EXPECT_EQ(RegionLowerBound(Metric::kCosine, gap.data(), gap.size()), 0.0);
  EXPECT_EQ(RegionLowerBound(Metric::kL2, gap.data(), 2), 5.0);
  EXPECT_EQ(RegionLowerBound(Metric::kL1, gap.data(), 2), 7.0);
  EXPECT_EQ(RegionLowerBound(Metric::kL2, gap.data(), 0), 0.0);
}

// ---------------------------------------------------------------------
// Backend equivalence: batched leaf scans vs brute force, per metric

struct BruteForce {
  static std::vector<Neighbor> Knn(
      Metric m, const std::vector<std::vector<double>>& rows,
      const std::vector<double>& query, size_t k) {
    std::vector<Neighbor> all;
    for (size_t i = 0; i < rows.size(); ++i) {
      all.push_back(Neighbor{
          PointId(i),
          MetricDistance(m, query.data(), rows[i].data(), query.size())});
    }
    std::sort(all.begin(), all.end(), NeighborDistanceThenId);
    if (all.size() > k) all.resize(k);
    return all;
  }
};

class KernelBackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(KernelBackendTest, L2ResultsBitIdenticalToScalarBruteForce) {
  const size_t kDims = 6;
  const size_t kPoints = 500;
  auto rows = RandomVectors(kPoints, kDims, 23);
  BackendOptions opts;
  opts.bucket_size = 16;
  auto index = MakeSpatialIndex(GetParam(), kDims, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->metric(), Metric::kL2);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  auto queries = RandomVectors(20, kDims, 29);
  for (const auto& q : queries) {
    auto want = BruteForce::Knn(Metric::kL2, rows, q, 10);
    auto got = index->KnnSearch(q, 10);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      // Bit-identical distances: the batched leaf scan must reproduce
      // the scalar kernel exactly.
      EXPECT_TRUE(SameBits(got[i].distance, want[i].distance));
    }
  }
}

TEST_P(KernelBackendTest, EveryMetricMatchesBruteForce) {
  const size_t kDims = 4;
  const size_t kPoints = 300;
  auto rows = RandomVectors(kPoints, kDims, 31);
  for (Metric m : {Metric::kL1, Metric::kCosine}) {
    BackendOptions opts;
    opts.bucket_size = 8;
    opts.metric = m;
    auto index = MakeSpatialIndex(GetParam(), kDims, opts);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->metric(), m);
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
    }
    auto queries = RandomVectors(10, kDims, 37);
    for (const auto& q : queries) {
      auto want = BruteForce::Knn(m, rows, q, 7);
      auto got = index->KnnSearch(q, 7);
      ASSERT_EQ(got.size(), want.size()) << MetricName(m);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << MetricName(m);
        EXPECT_TRUE(SameBits(got[i].distance, want[i].distance))
            << MetricName(m);
      }
      // Range search agrees too: use the 4th-nearest distance as the
      // radius so the result set is non-trivial.
      double radius = want[3].distance;
      auto got_range = index->RangeSearch(q, radius);
      for (const Neighbor& n : got_range) {
        EXPECT_LE(n.distance, radius);
      }
      size_t in_radius = 0;
      for (const Neighbor& n :
           BruteForce::Knn(m, rows, q, kPoints)) {
        if (n.distance <= radius) ++in_radius;
      }
      EXPECT_EQ(got_range.size(), in_radius) << MetricName(m);
    }
  }
}

TEST_P(KernelBackendTest, RejectsNonFiniteInsert) {
  auto index = MakeSpatialIndex(GetParam(), 3);
  ASSERT_TRUE(index->Insert({1.0, 2.0, 3.0}, 1).ok());
  EXPECT_TRUE(index->Insert({1.0, kNan, 3.0}, 2).IsInvalidArgument());
  EXPECT_TRUE(index->Insert({kInf, 2.0, 3.0}, 3).IsInvalidArgument());
  EXPECT_TRUE(index->Insert({1.0, 2.0, -kInf}, 4).IsInvalidArgument());
  EXPECT_EQ(index->size(), 1u);
}

TEST_P(KernelBackendTest, NonFiniteQueriesReturnEmpty) {
  auto index = MakeSpatialIndex(GetParam(), 2);
  ASSERT_TRUE(index->Insert({0.0, 0.0}, 1).ok());
  ASSERT_TRUE(index->Insert({1.0, 1.0}, 2).ok());
  EXPECT_TRUE(index->KnnSearch({kNan, 0.0}, 1).empty());
  EXPECT_TRUE(index->KnnSearch({0.0, kInf}, 1).empty());
  EXPECT_TRUE(index->RangeSearch({kNan, 0.0}, 1.0).empty());
  // NaN radius would defeat every pruning comparison; rejected.
  EXPECT_TRUE(index->RangeSearch({0.0, 0.0}, kNan).empty());
  // Sane queries still work.
  EXPECT_EQ(index->KnnSearch({0.0, 0.0}, 1).size(), 1u);
}

TEST_P(KernelBackendTest, DegenerateInputs) {
  // Empty store: every query is empty, under any metric.
  BackendOptions opts;
  opts.metric = Metric::kL1;
  auto empty = MakeSpatialIndex(GetParam(), 3, opts);
  EXPECT_TRUE(empty->KnnSearch({0.0, 0.0, 0.0}, 5).empty());
  EXPECT_TRUE(empty->RangeSearch({0.0, 0.0, 0.0}, 10.0).empty());
  // Mismatched query arity returns empty rather than reading out of
  // bounds.
  auto index = MakeSpatialIndex(GetParam(), 3);
  ASSERT_TRUE(index->Insert({1.0, 2.0, 3.0}, 1).ok());
  EXPECT_TRUE(index->KnnSearch({1.0, 2.0}, 1).empty());
  EXPECT_TRUE(index->RangeSearch({1.0, 2.0, 3.0, 4.0}, 5.0).empty());
  // Mismatched insert arity is a Status, not a truncation.
  EXPECT_TRUE(index->Insert({1.0}, 9).IsInvalidArgument());
}

TEST_P(KernelBackendTest, MetricRoundTripsThroughSnapshot) {
  const size_t kDims = 3;
  auto rows = RandomVectors(60, kDims, 41);
  BackendOptions opts;
  opts.bucket_size = 8;
  opts.metric = Metric::kL1;
  auto index = MakeSpatialIndex(GetParam(), kDims, opts);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  index->set_default_budget(SearchBudget::MaxDistances(1000));

  std::string path = ::testing::TempDir() + "/kernel_metric.snap";
  ASSERT_TRUE(persist::SaveSpatialIndex(*index, path).ok());
  auto loaded = persist::LoadSpatialIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->metric(), Metric::kL1);
  EXPECT_EQ((*loaded)->default_budget().max_distance_computations,
            1000u);

  auto queries = RandomVectors(8, kDims, 43);
  for (const auto& q : queries) {
    auto want = index->KnnSearch(q, 5);
    auto got = (*loaded)->KnnSearch(q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_TRUE(SameBits(got[i].distance, want[i].distance));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelBackendTest,
                         ::testing::Values(BackendKind::kKdTree,
                                           BackendKind::kLinearScan,
                                           BackendKind::kVpTree,
                                           BackendKind::kMTree),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

// ---------------------------------------------------------------------
// set_metric semantics

TEST(SetMetricTest, KdTreeMetricIsSearchOnlyState) {
  // The KD-tree's splitting structure is coordinate-based, so the
  // metric may change between queries; results follow the new metric.
  KdTree tree(2);
  auto rows = RandomVectors(50, 2, 51);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(tree.Insert(rows[i], PointId(i)).ok());
  }
  std::vector<double> q = {0.25, -0.5};
  ASSERT_TRUE(tree.set_metric(Metric::kL1).ok());
  auto got = tree.KnnSearch(q, 5);
  auto want = BruteForce::Knn(Metric::kL1, rows, q, 5);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
  }
}

TEST(SetMetricTest, VpTreeRebuildsUnderNewMetric) {
  BackendOptions opts;
  opts.bucket_size = 4;
  VpTreeIndex index(3, opts);
  auto rows = RandomVectors(80, 3, 53);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index.Insert(rows[i], PointId(i)).ok());
  }
  std::vector<double> q = {0.1, 0.2, 0.3};
  (void)index.KnnSearch(q, 3);  // Forces the L2 build.
  ASSERT_TRUE(index.set_metric(Metric::kCosine).ok());
  auto got = index.KnnSearch(q, 3);  // Lazily rebuilt under cosine.
  auto want = BruteForce::Knn(Metric::kCosine, rows, q, 3);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_TRUE(SameBits(got[i].distance, want[i].distance));
  }
}

TEST(SetMetricTest, VpTreeUnchangedMetricQueuesNoRebuild) {
  // Regression: re-applying the current metric (the snapshot loader
  // and config replay both do) used to drop the built tree and queue
  // a full lazy rebuild for nothing.
  VpTreeIndex index(3);
  auto rows = RandomVectors(60, 3, 57);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index.Insert(rows[i], PointId(i)).ok());
  }
  std::vector<double> q = {0.1, 0.2, 0.3};
  (void)index.KnnSearch(q, 3);  // Forces the initial build.
  const uint64_t builds = index.rebuild_count();
  const uint64_t epoch = index.epoch();

  ASSERT_TRUE(index.set_metric(index.metric()).ok());
  (void)index.KnnSearch(q, 3);
  EXPECT_EQ(index.rebuild_count(), builds);  // No rebuild queued.
  EXPECT_EQ(index.epoch(), epoch);           // No phantom mutation.

  // A real change still rebuilds exactly once, lazily.
  ASSERT_TRUE(index.set_metric(Metric::kL1).ok());
  EXPECT_EQ(index.rebuild_count(), builds);  // Lazy: not yet.
  (void)index.KnnSearch(q, 3);
  EXPECT_EQ(index.rebuild_count(), builds + 1);
}

TEST(SetMetricTest, MTreeRejectsMetricChangeAfterInsert) {
  MTreeIndex index(2);
  ASSERT_TRUE(index.set_metric(Metric::kL1).ok());  // Empty: allowed.
  EXPECT_EQ(index.metric(), Metric::kL1);
  ASSERT_TRUE(index.Insert({1.0, 2.0}, 1).ok());
  EXPECT_TRUE(index.set_metric(Metric::kL2).IsFailedPrecondition());
  EXPECT_TRUE(index.set_metric(Metric::kL1).ok());  // Same: no-op.
  EXPECT_EQ(index.metric(), Metric::kL1);
}

// ---------------------------------------------------------------------
// The hard-error overload and bulk-load validation

TEST(DistanceMismatchDeathTest, VectorOverloadAbortsOnMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_DEATH((void)EuclideanDistance(a, b), "dimension mismatch");
}

TEST(BulkLoadValidationTest, RejectsNonFinitePoints) {
  std::vector<KdPoint> points = {
      KdPoint{{0.0, 0.0}, 1},
      KdPoint{{1.0, kNan}, 2},
  };
  auto tree = KdTree::BulkLoadBalanced(2, points);
  EXPECT_TRUE(tree.status().IsInvalidArgument());
  auto chain = KdTree::BuildChain(2, points);
  EXPECT_TRUE(chain.status().IsInvalidArgument());
}

}  // namespace
}  // namespace semtree
