// Copyright 2026 The SemTree Authors
//
// Property-based sweeps: for every construction method, bucket size,
// dimensionality and seed, KD-tree searches must agree exactly with the
// linear-scan gold standard and structural invariants must hold.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "grid_ties.h"
#include "kdtree/kdtree.h"
#include "kdtree/linear_scan.h"

namespace semtree {
namespace {

enum class BuildKind { kDynamicInsert, kDynamicSortedInsert, kBalanced,
                       kChain };

const char* BuildKindName(BuildKind kind) {
  switch (kind) {
    case BuildKind::kDynamicInsert:
      return "dynamic";
    case BuildKind::kDynamicSortedInsert:
      return "dynamic_sorted";
    case BuildKind::kBalanced:
      return "balanced";
    case BuildKind::kChain:
      return "chain";
  }
  return "?";
}

struct PropertyCase {
  BuildKind build;
  size_t n;
  size_t dims;
  size_t bucket;
  uint64_t seed;
  bool clustered;  // Clustered data stresses unbalanced splits.
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  return std::string(BuildKindName(c.build)) + "_n" +
         std::to_string(c.n) + "_d" + std::to_string(c.dims) + "_b" +
         std::to_string(c.bucket) + "_s" + std::to_string(c.seed) +
         (c.clustered ? "_clustered" : "_uniform");
}

std::vector<KdPoint> MakePoints(const PropertyCase& c) {
  Rng rng(c.seed);
  std::vector<KdPoint> points(c.n);
  std::vector<std::vector<double>> centers;
  if (c.clustered) {
    for (int k = 0; k < 5; ++k) {
      std::vector<double> center(c.dims);
      for (double& x : center) x = rng.UniformDouble(-5.0, 5.0);
      centers.push_back(std::move(center));
    }
  }
  for (size_t i = 0; i < c.n; ++i) {
    points[i].id = i;
    points[i].coords.resize(c.dims);
    if (c.clustered) {
      const auto& center = centers[rng.Uniform(centers.size())];
      for (size_t d = 0; d < c.dims; ++d) {
        points[i].coords[d] = center[d] + 0.3 * rng.Gaussian();
      }
    } else {
      for (double& x : points[i].coords) x = rng.UniformDouble(-1.0, 1.0);
    }
  }
  return points;
}

class KdTreeEquivalence : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    const PropertyCase& c = GetParam();
    points_ = MakePoints(c);
    KdTreeOptions opts;
    opts.bucket_size = c.bucket;
    switch (c.build) {
      case BuildKind::kDynamicInsert:
      case BuildKind::kDynamicSortedInsert: {
        std::vector<KdPoint> order = points_;
        if (c.build == BuildKind::kDynamicSortedInsert) {
          std::sort(order.begin(), order.end(),
                    [](const KdPoint& a, const KdPoint& b) {
                      return a.coords[0] < b.coords[0];
                    });
        }
        tree_ = std::make_unique<KdTree>(c.dims, opts);
        for (const KdPoint& p : order) {
          ASSERT_TRUE(tree_->Insert(p.coords, p.id).ok());
        }
        break;
      }
      case BuildKind::kBalanced: {
        auto t = KdTree::BulkLoadBalanced(c.dims, points_, opts);
        ASSERT_TRUE(t.ok());
        tree_ = std::make_unique<KdTree>(std::move(*t));
        break;
      }
      case BuildKind::kChain: {
        auto t = KdTree::BuildChain(c.dims, points_, opts);
        ASSERT_TRUE(t.ok());
        tree_ = std::make_unique<KdTree>(std::move(*t));
        break;
      }
    }
    scan_ = std::make_unique<LinearScanIndex>(c.dims);
    for (const KdPoint& p : points_) {
      ASSERT_TRUE(scan_->Insert(p.coords, p.id).ok());
    }
  }

  std::vector<double> RandomQuery(Rng* rng) const {
    std::vector<double> q(GetParam().dims);
    for (double& x : q) x = rng->UniformDouble(-6.0, 6.0);
    return q;
  }

  std::vector<KdPoint> points_;
  std::unique_ptr<KdTree> tree_;
  std::unique_ptr<LinearScanIndex> scan_;
};

TEST_P(KdTreeEquivalence, InvariantsHold) {
  EXPECT_EQ(tree_->size(), GetParam().n);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_P(KdTreeEquivalence, KnnMatchesLinearScan) {
  Rng rng(GetParam().seed + 1);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> query = RandomQuery(&rng);
    for (size_t k : {1u, 3u, 10u}) {
      auto expected = scan_->KnnSearch(query, k);
      auto actual = tree_->KnnSearch(query, k);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].id, expected[i].id) << "k=" << k << " i=" << i;
        EXPECT_DOUBLE_EQ(actual[i].distance, expected[i].distance);
      }
    }
  }
}

TEST_P(KdTreeEquivalence, RangeMatchesLinearScan) {
  Rng rng(GetParam().seed + 2);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> query = RandomQuery(&rng);
    for (double radius : {0.0, 0.2, 1.0, 4.0}) {
      auto expected = scan_->RangeSearch(query, radius);
      auto actual = tree_->RangeSearch(query, radius);
      ASSERT_EQ(actual.size(), expected.size()) << "radius=" << radius;
      for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].id, expected[i].id);
      }
    }
  }
}

TEST_P(KdTreeEquivalence, QueryOnIndexedPointFindsItFirst) {
  Rng rng(GetParam().seed + 3);
  for (int q = 0; q < 10; ++q) {
    const KdPoint& p = points_[rng.Uniform(points_.size())];
    auto hits = tree_->KnnSearch(p.coords, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_DOUBLE_EQ(hits[0].distance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeEquivalence,
    ::testing::Values(
        PropertyCase{BuildKind::kDynamicInsert, 500, 2, 4, 1, false},
        PropertyCase{BuildKind::kDynamicInsert, 500, 2, 4, 2, true},
        PropertyCase{BuildKind::kDynamicInsert, 1000, 8, 32, 3, false},
        PropertyCase{BuildKind::kDynamicInsert, 1000, 3, 1, 4, true},
        PropertyCase{BuildKind::kDynamicSortedInsert, 800, 2, 8, 5, false},
        PropertyCase{BuildKind::kDynamicSortedInsert, 800, 4, 16, 6, true},
        PropertyCase{BuildKind::kBalanced, 500, 2, 4, 7, false},
        PropertyCase{BuildKind::kBalanced, 2000, 8, 32, 8, true},
        PropertyCase{BuildKind::kBalanced, 777, 5, 10, 9, false},
        PropertyCase{BuildKind::kChain, 400, 2, 8, 10, false},
        PropertyCase{BuildKind::kChain, 400, 6, 4, 11, true},
        PropertyCase{BuildKind::kChain, 1000, 3, 16, 12, false}),
    CaseName);

// Mixed workload: interleaved inserts and queries stay consistent with
// a scan that receives the same inserts.
TEST(KdTreeIncrementalTest, InterleavedInsertAndQuery) {
  const size_t kDims = 4;
  KdTree tree(kDims, {.bucket_size = 8});
  LinearScanIndex scan(kDims);
  Rng rng(55);
  for (int step = 0; step < 1500; ++step) {
    std::vector<double> coords(kDims);
    for (double& c : coords) c = rng.UniformDouble(-2.0, 2.0);
    ASSERT_TRUE(tree.Insert(coords, step).ok());
    ASSERT_TRUE(scan.Insert(coords, step).ok());
    if (step % 100 == 99) {
      std::vector<double> q(kDims);
      for (double& c : q) c = rng.UniformDouble(-2.0, 2.0);
      EXPECT_EQ(tree.KnnSearch(q, 7), scan.KnnSearch(q, 7));
      EXPECT_TRUE(tree.CheckInvariants().ok());
    }
  }
}

// On grid data (grid_ties.h) the walk must reach every region whose
// bound equals the k-th distance (the strict `bound > limit` stop) and
// keep the tied points with the smallest ids, as the scan does, under
// every metric.
TEST(KdTreeGridTiesTest, EveryMetricMatchesLinearScan) {
  for (Metric m : {Metric::kL2, Metric::kL1, Metric::kCosine}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE(std::string(MetricName(m)) + " seed " +
                   std::to_string(seed));
      const GridTies grid = MakeGridTies(seed);
      KdTreeOptions opts;
      opts.bucket_size = 2;
      opts.metric = m;
      KdTree dynamic(grid.dims, opts);
      LinearScanIndex scan(grid.dims);
      ASSERT_TRUE(scan.set_metric(m).ok());
      for (const KdPoint& p : grid.points) {
        ASSERT_TRUE(dynamic.Insert(p.coords, p.id).ok());
        ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
      }
      auto balanced = KdTree::BulkLoadBalanced(grid.dims, grid.points, opts);
      ASSERT_TRUE(balanced.ok());
      Rng rng(seed + 1000);
      for (int q = 0; q < 20; ++q) {
        std::vector<double> query = GridQuery(grid.dims, &rng);
        for (const KdTree* tree : {&dynamic, &*balanced}) {
          for (size_t k = 1; k <= 5; ++k) {
            EXPECT_EQ(tree->KnnSearch(query, k), scan.KnnSearch(query, k))
                << "k=" << k;
          }
          for (double radius : {0.5, 1.0, 1.5, 2.0}) {
            EXPECT_EQ(tree->RangeSearch(query, radius),
                      scan.RangeSearch(query, radius))
                << "radius=" << radius;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace semtree
