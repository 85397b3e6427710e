// Copyright 2026 The SemTree Authors
//
// Tests for the parallel bulk-build pipeline (DESIGN.md §8): the
// nth_element median split against its sort-based golden reference,
// the byte-identity of parallel and serial builds across all backends,
// the determinism of the centroid split across thread counts, the
// degenerate corpora, the leaf-ordered KD-tree arena, and the SemTree
// partition build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/backends.h"
#include "core/bulk_build.h"
#include "core/split.h"
#include "kdtree/kdtree.h"
#include "kdtree/linear_scan.h"
#include "persist/index_snapshot.h"
#include "semtree/semtree.h"

namespace semtree {
namespace {

std::vector<KdPoint> ClusteredPoints(size_t n, size_t dims,
                                     size_t clusters, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centers(clusters);
  for (auto& c : centers) {
    c.resize(dims);
    for (double& v : c) v = rng.UniformDouble(0.0, 100.0);
  }
  std::vector<KdPoint> points(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& center = centers[rng.Uniform(clusters)];
    points[i].id = i;
    points[i].coords.resize(dims);
    for (size_t d = 0; d < dims; ++d) {
      points[i].coords[d] = center[d] + rng.Gaussian() * 5.0;
    }
  }
  return points;
}

std::string SnapshotBytes(const SpatialIndex& index) {
  auto bytes = persist::SerializeSpatialIndex(index);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

std::unique_ptr<SpatialIndex> BuildBackend(BackendKind kind, size_t dims,
                                           const std::vector<KdPoint>& pts,
                                           SplitPolicy policy,
                                           size_t threads) {
  BackendOptions opts;
  opts.split_policy = policy;
  opts.build_threads = threads;
  auto index = MakeSpatialIndex(kind, dims, opts);
  EXPECT_TRUE(index->BulkLoad(pts).ok());
  return index;
}

// ---------------------------------------------------------------------
// Median split: nth_element path vs the sort-based golden reference.

TEST(MedianSplitTest, MatchesSortReferenceOnRandomSpans) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 2 + rng.Uniform(60);
    size_t dims = 1 + rng.Uniform(3);
    // Values drawn from a small integer set: heavy duplicate pressure
    // so the equal-block tie-break paths are actually exercised.
    std::vector<std::vector<double>> rows(n);
    for (auto& r : rows) {
      r.resize(dims);
      for (double& v : r) v = double(rng.Uniform(6));
    }
    auto row = [&rows](size_t i) { return rows[i].data(); };
    std::vector<size_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) a[i] = b[i] = i;
    // Shuffle so the two paths start from the same (arbitrary) order.
    for (size_t i = n; i > 1; --i) std::swap(a[i - 1], a[rng.Uniform(i)]);
    b = a;

    MedianSplit fast, ref;
    bool fast_ok = ChooseMedianSplit(a, 0, n, dims, row, &fast);
    bool ref_ok = ChooseMedianSplitBySort(b, 0, n, dims, row, &ref);
    ASSERT_EQ(fast_ok, ref_ok) << "trial " << trial;
    if (!fast_ok) continue;
    EXPECT_EQ(fast.dim, ref.dim) << "trial " << trial;
    EXPECT_EQ(fast.value, ref.value) << "trial " << trial;
    EXPECT_EQ(fast.boundary, ref.boundary) << "trial " << trial;
    // Same membership on both sides, whatever the internal order.
    std::vector<size_t> left_a(a.begin(), a.begin() + ptrdiff_t(fast.boundary));
    std::vector<size_t> left_b(b.begin(), b.begin() + ptrdiff_t(ref.boundary));
    std::sort(left_a.begin(), left_a.end());
    std::sort(left_b.begin(), left_b.end());
    EXPECT_EQ(left_a, left_b) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------
// Byte-identity: parallel build == serial build, per backend & policy.

struct IdentityCase {
  BackendKind kind;
  SplitPolicy policy;
  size_t n;
};

class ParallelIdentity : public ::testing::TestWithParam<IdentityCase> {};

TEST_P(ParallelIdentity, SnapshotBytesMatchSerial) {
  const IdentityCase& c = GetParam();
  const size_t dims = 4;
  auto points = ClusteredPoints(c.n, dims, 8, 42);
  auto serial = BuildBackend(c.kind, dims, points, c.policy, 1);
  auto parallel = BuildBackend(c.kind, dims, points, c.policy, 8);
  EXPECT_EQ(serial->size(), points.size());
  EXPECT_EQ(SnapshotBytes(*serial), SnapshotBytes(*parallel));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelIdentity,
    ::testing::Values(
        // 5000 points crosses the parallel cutoff (4096) on the tree
        // builders; the insert-loop backends get smaller corpora.
        IdentityCase{BackendKind::kKdTree, SplitPolicy::kMedian, 5000},
        IdentityCase{BackendKind::kKdTree, SplitPolicy::kCentroid, 5000},
        IdentityCase{BackendKind::kVpTree, SplitPolicy::kMedian, 5000},
        IdentityCase{BackendKind::kVpTree, SplitPolicy::kCentroid, 5000},
        IdentityCase{BackendKind::kLinearScan, SplitPolicy::kMedian, 1200},
        IdentityCase{BackendKind::kLinearScan, SplitPolicy::kCentroid, 1200},
        IdentityCase{BackendKind::kMTree, SplitPolicy::kMedian, 1200},
        IdentityCase{BackendKind::kMTree, SplitPolicy::kCentroid, 1200}));

TEST(ParallelIdentityTest, CentroidStableAcrossThreadCounts) {
  const size_t dims = 6;
  auto points = ClusteredPoints(6000, dims, 12, 9);
  std::string reference;
  for (size_t threads : {size_t(1), size_t(2), size_t(3), size_t(8)}) {
    auto index = BuildBackend(BackendKind::kKdTree, dims, points,
                              SplitPolicy::kCentroid, threads);
    std::string bytes = SnapshotBytes(*index);
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelIdentityTest, AutoThreadsMatchesSerial) {
  const size_t dims = 4;
  auto points = ClusteredPoints(5000, dims, 8, 3);
  auto serial = BuildBackend(BackendKind::kKdTree, dims, points,
                             SplitPolicy::kMedian, 1);
  // 0 = one thread per hardware thread — whatever that resolves to,
  // the bytes must not move.
  auto auto_threads = BuildBackend(BackendKind::kKdTree, dims, points,
                                   SplitPolicy::kMedian, 0);
  EXPECT_EQ(SnapshotBytes(*serial), SnapshotBytes(*auto_threads));
}

// ---------------------------------------------------------------------
// Degenerate corpora.

TEST(BulkBuildDegenerateTest, AllIdenticalPoints) {
  const size_t dims = 3;
  std::vector<KdPoint> points(200);
  for (size_t i = 0; i < points.size(); ++i) {
    points[i] = KdPoint{{1.0, 2.0, 3.0}, i};
  }
  for (SplitPolicy policy :
       {SplitPolicy::kMedian, SplitPolicy::kCentroid}) {
    KdTreeOptions opts;
    opts.split_policy = policy;
    opts.build_threads = 4;
    KdTree tree(dims, opts);
    ASSERT_TRUE(tree.BulkLoad(points).ok());
    EXPECT_EQ(tree.size(), points.size());
    EXPECT_TRUE(tree.CheckInvariants().ok());
    // One overflowing leaf: inseparable points must not split.
    EXPECT_EQ(tree.NodeCount(), 1u);
    auto got = tree.KnnSearch({1.0, 2.0, 3.0}, 5);
    ASSERT_EQ(got.size(), 5u);
    for (const Neighbor& nb : got) EXPECT_EQ(nb.distance, 0.0);
  }
}

TEST(BulkBuildDegenerateTest, TinyAndSubCutoffCorpora) {
  const size_t dims = 2;
  for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(3),
                   size_t(40), size_t(1000)}) {
    auto points = ClusteredPoints(n, dims, 3, n + 1);
    for (SplitPolicy policy :
         {SplitPolicy::kMedian, SplitPolicy::kCentroid}) {
      KdTreeOptions opts;
      opts.split_policy = policy;
      opts.build_threads = 8;  // Sub-cutoff spans must build inline.
      KdTree tree(dims, opts);
      ASSERT_TRUE(tree.BulkLoad(points).ok());
      EXPECT_EQ(tree.size(), n);
      EXPECT_TRUE(tree.CheckInvariants().ok());
    }
  }
}

// ---------------------------------------------------------------------
// Centroid-built trees answer exactly.

TEST(CentroidSplitTest, ExactAgainstLinearScan) {
  const size_t dims = 5;
  auto points = ClusteredPoints(3000, dims, 10, 21);
  LinearScanIndex scan(dims);
  for (const KdPoint& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  auto tree = BuildBackend(BackendKind::kKdTree, dims, points,
                           SplitPolicy::kCentroid, 2);
  Rng rng(5);
  for (int q = 0; q < 30; ++q) {
    std::vector<double> query = points[rng.Uniform(points.size())].coords;
    for (double& v : query) v += rng.Gaussian();
    auto truth = scan.KnnSearch(query, 10);
    auto got = tree->KnnSearch(query, 10);
    ASSERT_EQ(truth.size(), got.size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(truth[i].id, got[i].id) << "query " << q;
      EXPECT_EQ(truth[i].distance, got[i].distance) << "query " << q;
    }
  }
}

// ---------------------------------------------------------------------
// Leaf-ordered arena: a plan-built KD-tree permutes its store so that
// the leaves, in pre-order, hold consecutive slot runs tiling [0, n),
// each in canonical (ascending input) order. Inputs carry id = input
// position.

void ExpectLeafOrdered(const KdTree& tree,
                       const std::vector<KdPoint>& points) {
  const PointStore& store = tree.store();
  ASSERT_EQ(store.slot_count(), points.size());
  std::vector<bool> seen(points.size(), false);
  size_t next = 0;
  for (const std::vector<PointStore::Slot>& bucket : tree.LeafBuckets()) {
    for (size_t j = 0; j < bucket.size(); ++j) {
      ASSERT_EQ(bucket[j], next) << "leaf runs must tile [0, n)";
      ++next;
      const PointId id = store.IdAt(bucket[j]);
      ASSERT_LT(id, points.size());
      EXPECT_FALSE(seen[id]) << "point " << id << " stored twice";
      seen[id] = true;
      if (j > 0) {
        EXPECT_LT(store.IdAt(bucket[j - 1]), id);
      }
      const std::vector<double>& want = points[id].coords;
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             store.CoordsAt(bucket[j])))
          << "point " << id;
    }
  }
  EXPECT_EQ(next, points.size());
}

// Exact k-NN and range answers match the linear scan.
void ExpectAnswersLikeScan(const KdTree& tree, const LinearScanIndex& scan,
                           const std::vector<KdPoint>& points,
                           uint64_t seed) {
  ASSERT_EQ(tree.size(), scan.size());
  Rng rng(seed);
  for (int q = 0; q < 10; ++q) {
    std::vector<double> query = points[rng.Uniform(points.size())].coords;
    for (double& v : query) v += rng.Gaussian();
    EXPECT_EQ(tree.KnnSearch(query, 10), scan.KnnSearch(query, 10))
        << "query " << q;
    EXPECT_EQ(tree.RangeSearch(query, 6.0), scan.RangeSearch(query, 6.0))
        << "query " << q;
  }
}

TEST(LeafOrderedArenaTest, BulkBuildsStoreLeavesAsSlotRuns) {
  const size_t dims = 4;
  // 5000 points cross the parallel cutoff (4096).
  const auto points = ClusteredPoints(5000, dims, 8, 61);
  for (SplitPolicy policy :
       {SplitPolicy::kMedian, SplitPolicy::kCentroid}) {
    for (size_t threads : {size_t(1), size_t(4)}) {
      SCOPED_TRACE(std::string(SplitPolicyName(policy)) +
                   " threads=" + std::to_string(threads));
      KdTreeOptions opts;
      opts.split_policy = policy;
      opts.build_threads = threads;
      auto balanced = KdTree::BulkLoadBalanced(dims, points, opts);
      ASSERT_TRUE(balanced.ok());
      ExpectLeafOrdered(*balanced, points);

      // BulkLoad on a tree emptied by removals: the freed slots are
      // dropped, not permuted.
      KdTree loaded(dims, opts);
      ASSERT_TRUE(loaded.Insert(points[0].coords, points[0].id).ok());
      ASSERT_TRUE(loaded.Remove(points[0].coords, points[0].id).ok());
      ASSERT_TRUE(loaded.BulkLoad(points).ok());
      ExpectLeafOrdered(loaded, points);
      EXPECT_TRUE(loaded.CheckInvariants().ok());
    }
  }
}

TEST(LeafOrderedArenaTest, MutationsAndSnapshotsAfterBulkLoadAnswerExactly) {
  const size_t dims = 4;
  auto points = ClusteredPoints(3000, dims, 6, 67);
  KdTreeOptions opts;
  opts.build_threads = 4;
  KdTree tree(dims, opts);
  ASSERT_TRUE(tree.BulkLoad(points).ok());
  LinearScanIndex scan(dims);
  ASSERT_TRUE(scan.BulkLoad(points).ok());
  ExpectAnswersLikeScan(tree, scan, points, 1);

  // Removals free slots inside leaf runs; inserts reuse them, then
  // append past the end.
  for (size_t i = 0; i < points.size(); i += 7) {
    ASSERT_TRUE(tree.Remove(points[i].coords, points[i].id).ok());
    ASSERT_TRUE(scan.Remove(points[i].coords, points[i].id).ok());
  }
  Rng rng(71);
  for (size_t i = 0; i < 800; ++i) {
    std::vector<double> p = points[rng.Uniform(points.size())].coords;
    for (double& v : p) v += rng.Gaussian();
    ASSERT_TRUE(tree.Insert(p, PointId(10000 + i)).ok());
    ASSERT_TRUE(scan.Insert(p, PointId(10000 + i)).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants().ok());
  ExpectAnswersLikeScan(tree, scan, points, 2);

  persist::ByteWriter out;
  tree.SaveTo(&out);
  const std::string bytes = out.Take();
  persist::ByteReader in(bytes);
  auto loaded = KdTree::LoadFrom(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  ExpectAnswersLikeScan(*loaded, scan, points, 3);
}

// ---------------------------------------------------------------------
// SemTree: the partition build goes through the same pipeline.

std::string SemTreeBytes(const SemTree& tree) {
  persist::ByteWriter out;
  Status st = tree.SaveTo(&out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.Take();
}

TEST(SemTreeBulkBuildTest, ParallelPartitionBuildsAreByteIdentical) {
  for (SplitPolicy policy :
       {SplitPolicy::kMedian, SplitPolicy::kCentroid}) {
    auto points = ClusteredPoints(6000, 4, 6, 13);
    std::string reference;
    for (size_t threads : {size_t(1), size_t(4)}) {
      SemTreeOptions opts;
      opts.dimensions = 4;
      opts.bucket_size = 16;
      opts.max_partitions = 3;
      opts.split_policy = policy;
      opts.build_threads = threads;
      auto tree = SemTree::Create(opts);
      ASSERT_TRUE(tree.ok());
      ASSERT_TRUE((*tree)->BulkLoadBalanced(points).ok());
      EXPECT_TRUE((*tree)->CheckInvariants().ok());
      std::string bytes = SemTreeBytes(**tree);
      if (reference.empty()) {
        reference = std::move(bytes);
      } else {
        EXPECT_EQ(bytes, reference)
            << SplitPolicyName(policy) << " threads=" << threads;
      }
    }
  }
}

TEST(SemTreeBulkBuildTest, CentroidBulkLoadAnswersExactly) {
  const size_t dims = 4;
  auto points = ClusteredPoints(4000, dims, 8, 17);
  LinearScanIndex scan(dims);
  for (const KdPoint& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  SemTreeOptions opts;
  opts.dimensions = dims;
  opts.bucket_size = 16;
  opts.max_partitions = 4;
  opts.split_policy = SplitPolicy::kCentroid;
  opts.build_threads = 2;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkLoadBalanced(points).ok());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  Rng rng(29);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query = points[rng.Uniform(points.size())].coords;
    for (double& v : query) v += rng.Gaussian();
    auto truth = scan.KnnSearch(query, 8);
    auto got = (*tree)->KnnSearch(query, 8);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(truth.size(), got->size());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(truth[i].id, (*got)[i].id) << "query " << q;
    }
  }
}

}  // namespace
}  // namespace semtree
