// Copyright 2026 The SemTree Authors
//
// Property sweep: the distributed SemTree must agree exactly with the
// linear-scan baseline across partition counts, capacities, bucket
// sizes, dimensionalities, client concurrency and latency settings.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "grid_ties.h"
#include "kdtree/linear_scan.h"
#include "semtree/semtree.h"

namespace semtree {
namespace {

struct DistCase {
  size_t n;
  size_t dims;
  size_t bucket;
  size_t partitions;
  size_t capacity;
  size_t client_threads;
  uint64_t latency_us;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<DistCase>& info) {
  const DistCase& c = info.param;
  return "n" + std::to_string(c.n) + "_d" + std::to_string(c.dims) +
         "_b" + std::to_string(c.bucket) + "_p" +
         std::to_string(c.partitions) + "_c" + std::to_string(c.capacity) +
         "_t" + std::to_string(c.client_threads) + "_l" +
         std::to_string(c.latency_us) + "_s" + std::to_string(c.seed);
}

class SemTreeEquivalence : public ::testing::TestWithParam<DistCase> {
 protected:
  void SetUp() override {
    const DistCase& c = GetParam();
    Rng rng(c.seed);
    points_.resize(c.n);
    for (size_t i = 0; i < c.n; ++i) {
      points_[i].id = i;
      points_[i].coords.resize(c.dims);
      for (double& x : points_[i].coords) x = rng.UniformDouble(-2, 2);
    }
    SemTreeOptions opts;
    opts.dimensions = c.dims;
    opts.bucket_size = c.bucket;
    opts.max_partitions = c.partitions;
    opts.partition_capacity = c.capacity;
    opts.network_latency = std::chrono::microseconds(c.latency_us);
    auto tree = SemTree::Create(opts);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(*tree);
    ASSERT_TRUE(tree_->BulkInsert(points_, c.client_threads).ok());
    scan_ = std::make_unique<LinearScanIndex>(c.dims);
    for (const auto& p : points_) {
      ASSERT_TRUE(scan_->Insert(p.coords, p.id).ok());
    }
  }

  std::vector<KdPoint> points_;
  std::unique_ptr<SemTree> tree_;
  std::unique_ptr<LinearScanIndex> scan_;
};

TEST_P(SemTreeEquivalence, SizeAndInvariants) {
  EXPECT_EQ(tree_->size(), GetParam().n);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_P(SemTreeEquivalence, KnnMatchesLinearScan) {
  Rng rng(GetParam().seed + 100);
  for (int q = 0; q < 12; ++q) {
    std::vector<double> query(GetParam().dims);
    for (double& x : query) x = rng.UniformDouble(-2.5, 2.5);
    for (size_t k : {1u, 5u, 16u}) {
      auto got = tree_->KnnSearch(query, k);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, scan_->KnnSearch(query, k)) << "k=" << k;
    }
  }
}

TEST_P(SemTreeEquivalence, RangeMatchesLinearScan) {
  Rng rng(GetParam().seed + 200);
  for (int q = 0; q < 12; ++q) {
    std::vector<double> query(GetParam().dims);
    for (double& x : query) x = rng.UniformDouble(-2.5, 2.5);
    for (double radius : {0.0, 0.3, 1.0, 3.0}) {
      auto got = tree_->RangeSearch(query, radius);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, scan_->RangeSearch(query, radius))
          << "radius=" << radius;
    }
  }
}

TEST_P(SemTreeEquivalence, PartitionPointCountsReconcile) {
  auto stats = tree_->AllPartitionStats();
  size_t total = 0;
  for (const auto& s : stats) total += s.points;
  EXPECT_EQ(total, GetParam().n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SemTreeEquivalence,
    ::testing::Values(
        // Single partition baseline configurations.
        DistCase{600, 2, 4, 1, SIZE_MAX, 1, 0, 1},
        DistCase{600, 8, 32, 1, SIZE_MAX, 4, 0, 2},
        // Small partition fan-outs, the paper's 3/5/9 series.
        DistCase{800, 2, 8, 3, 120, 1, 0, 3},
        DistCase{800, 4, 8, 5, 80, 4, 0, 4},
        DistCase{1200, 8, 16, 9, 70, 8, 0, 5},
        // Aggressive partitioning: tiny buckets, tiny capacity.
        DistCase{500, 2, 1, 9, 25, 4, 0, 6},
        DistCase{900, 3, 4, 16, 30, 8, 0, 7},
        // With network latency.
        DistCase{400, 4, 8, 5, 60, 4, 30, 8},
        DistCase{400, 2, 4, 3, 50, 2, 100, 9}),
    CaseName);

// On grid data (grid_ties.h) the exact walks must keep the points tied
// at the k-th distance with the smallest ids, as the scan does. A
// backward visit that entered a far subtree only when its bound was
// strictly below max(Rs) never offered a far point at exactly max(Rs)
// with a smaller id.
TEST(SemTreeGridTiesTest, ExactSearchesMatchLinearScan) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    for (size_t partitions : {size_t(1), size_t(4)}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " partitions " +
                   std::to_string(partitions));
      const GridTies grid = MakeGridTies(seed);
      SemTreeOptions opts;
      opts.dimensions = grid.dims;
      opts.bucket_size = 2;
      opts.max_partitions = partitions;
      opts.partition_capacity = 8;
      auto tree = SemTree::Create(opts);
      ASSERT_TRUE(tree.ok());
      LinearScanIndex scan(grid.dims);
      for (const KdPoint& p : grid.points) {
        ASSERT_TRUE((*tree)->Insert(p.coords, p.id).ok());
        ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
      }
      Rng rng(seed + 1000);
      for (int q = 0; q < 20; ++q) {
        std::vector<double> query = GridQuery(grid.dims, &rng);
        for (size_t k = 1; k <= 5; ++k) {
          auto got = (*tree)->KnnSearch(query, k);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, scan.KnnSearch(query, k)) << "k=" << k;
        }
        for (double radius : {0.5, 1.0, 1.5}) {
          auto got = (*tree)->RangeSearch(query, radius);
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, scan.RangeSearch(query, radius))
              << "radius=" << radius;
        }
      }
    }
  }
}

}  // namespace
}  // namespace semtree
