// Copyright 2026 The SemTree Authors
//
// Tests for the core layer: the flat PointStore arena, the PointBlock
// migration payload, the shared distance kernel, the top-k offer rule,
// and the cross-backend equivalence of every SpatialIndex
// implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/backends.h"
#include "core/best_first.h"
#include "core/distance.h"
#include "core/point_block.h"
#include "core/point_store.h"
#include "core/spatial_index.h"
#include "grid_ties.h"

namespace semtree {
namespace {

std::vector<std::vector<double>> RandomVectors(size_t n, size_t dims,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out(n);
  for (auto& v : out) {
    v.resize(dims);
    for (double& c : v) c = rng.UniformDouble(-1.0, 1.0);
  }
  return out;
}

TEST(PointStoreTest, AppendAndIterate) {
  PointStore store(3);
  auto rows = RandomVectors(100, 3, 1);
  std::vector<PointStore::Slot> slots;
  for (size_t i = 0; i < rows.size(); ++i) {
    slots.push_back(store.Append(rows[i], PointId(1000 + i)));
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.slot_count(), 100u);
  EXPECT_EQ(store.dimensions(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double* r = store.CoordsAt(slots[i]);
    for (size_t d = 0; d < 3; ++d) EXPECT_EQ(r[d], rows[i][d]);
    EXPECT_EQ(store.IdAt(slots[i]), PointId(1000 + i));
  }
}

TEST(PointStoreTest, ViewsStayStableAcrossGrowth) {
  // Row pointers must survive arbitrarily many further appends (chunks
  // are never reallocated) — leaf buckets cache them implicitly.
  PointStore store(4, /*chunk_capacity=*/8);
  auto rows = RandomVectors(2000, 4, 2);
  std::vector<PointView> early_views;
  for (size_t i = 0; i < rows.size(); ++i) {
    PointStore::Slot s = store.Append(rows[i], PointId(i));
    if (i < 50) early_views.push_back(store.View(s));
  }
  for (size_t i = 0; i < early_views.size(); ++i) {
    EXPECT_EQ(early_views[i].id, PointId(i));
    for (size_t d = 0; d < 4; ++d) {
      EXPECT_EQ(early_views[i][d], rows[i][d]);
    }
  }
}

TEST(PointStoreTest, ReleaseRecyclesSlots) {
  PointStore store(2);
  std::vector<double> a = {1.0, 2.0};
  std::vector<double> b = {3.0, 4.0};
  PointStore::Slot s1 = store.Append(a, 1);
  PointStore::Slot s2 = store.Append(b, 2);
  EXPECT_EQ(store.size(), 2u);
  store.Release(s1);
  EXPECT_EQ(store.size(), 1u);
  std::vector<double> c = {5.0, 6.0};
  PointStore::Slot s3 = store.Append(c, 3);
  EXPECT_EQ(s3, s1);  // Freed slot reused; arena did not grow.
  EXPECT_EQ(store.slot_count(), 2u);
  EXPECT_EQ(store.IdAt(s3), 3u);
  EXPECT_EQ(store.CoordsAt(s3)[0], 5.0);
  EXPECT_EQ(store.IdAt(s2), 2u);  // Untouched neighbour intact.
}

TEST(PointStoreTest, ReservePreallocates) {
  PointStore store(8);
  store.Reserve(5000);
  auto rows = RandomVectors(5000, 8, 3);
  for (size_t i = 0; i < rows.size(); ++i) {
    store.Append(rows[i], PointId(i));
  }
  EXPECT_EQ(store.size(), 5000u);
}

TEST(PointStoreTest, PermuteMovesRowsAndIds) {
  const size_t n = 300;
  PointStore store(3, /*chunk_capacity=*/16);  // Cycles cross chunks.
  auto rows = RandomVectors(n, 3, 6);
  for (size_t i = 0; i < n; ++i) store.Append(rows[i], PointId(100 + i));
  std::vector<PointStore::Slot> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = PointStore::Slot(i);
  Rng rng(7);
  // Shuffle, then pin a few fixed points among the cycles.
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (size_t i : {size_t(0), size_t(17), size_t(n - 1)}) {
    std::swap(order[i], *std::find(order.begin(), order.end(), i));
  }
  store.Permute(order);
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.slot_count(), n);
  for (size_t i = 0; i < n; ++i) {
    const size_t from = order[i];
    EXPECT_EQ(store.IdAt(PointStore::Slot(i)), PointId(100 + from));
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(store.CoordsAt(PointStore::Slot(i))[d], rows[from][d]);
    }
  }
}

TEST(PointBlockTest, RoundTripsRows) {
  auto rows = RandomVectors(64, 5, 4);
  PointBlock block(5);
  block.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    block.Append(rows[i].data(), PointId(i * 7));
  }
  EXPECT_EQ(block.size(), 64u);
  EXPECT_EQ(block.coords.size(), 64u * 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    PointView v = block.View(i);
    EXPECT_EQ(v.id, PointId(i * 7));
    for (size_t d = 0; d < 5; ++d) EXPECT_EQ(v[d], rows[i][d]);
  }
}

TEST(DistanceKernelTest, MatchesVectorOverload) {
  auto rows = RandomVectors(2, 16, 5);
  double raw = EuclideanDistance(rows[0].data(), rows[1].data(), 16);
  double vec = EuclideanDistance(rows[0], rows[1]);
  EXPECT_DOUBLE_EQ(raw, vec);
  EXPECT_DOUBLE_EQ(EuclideanDistance(std::vector<double>{0, 0},
                                     std::vector<double>{3, 4}),
                   5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(rows[0].data(),
                                            rows[0].data(), 16),
                   0.0);
}

// ---------------------------------------------------------------------
// The top-k offer rule (core/best_first.h) against sort-then-truncate.

std::vector<Neighbor> SortThenTruncate(std::vector<Neighbor> hits,
                                       size_t k) {
  std::sort(hits.begin(), hits.end(), NeighborDistanceThenId);
  hits.resize(std::min(k, hits.size()));
  return hits;
}

// Distances and ids drawn from small sets: many equal distances, and
// repeated (distance, id) pairs.
std::vector<Neighbor> TieHeavyStream(Rng* rng) {
  std::vector<Neighbor> stream(1 + rng->Uniform(120));
  for (Neighbor& hit : stream) {
    hit.distance = 0.25 * double(rng->Uniform(8));
    hit.id = PointId(rng->Uniform(12));
  }
  return stream;
}

TEST(OfferTopKTest, MatchesSortThenTruncate) {
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Neighbor> stream = TieHeavyStream(&rng);
    // k = 0 is legal here: SemTree's result set Rs takes it as is.
    for (size_t k : {size_t(0), size_t(1), size_t(10), stream.size() + 3}) {
      std::vector<Neighbor> heap;
      for (size_t i = 0; i < stream.size(); ++i) {
        OfferTopK(&heap, k, stream[i]);
        std::vector<Neighbor> want = SortThenTruncate(
            {stream.begin(), stream.begin() + ptrdiff_t(i + 1)}, k);
        ASSERT_EQ(heap.size(), want.size()) << "trial " << trial;
        if (!want.empty()) {
          EXPECT_EQ(heap.front(), want.back()) << "trial " << trial;
        }
      }
      std::sort_heap(heap.begin(), heap.end(), NeighborDistanceThenId);
      EXPECT_EQ(heap, SortThenTruncate(stream, k)) << "k=" << k;
    }
  }
}

TEST(KnnAccumulatorTest, TauIsTheKthBestAfterEveryOffer) {
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Neighbor> stream = TieHeavyStream(&rng);
    // No k = 0: the walkers return before building an accumulator.
    for (size_t k : {size_t(1), size_t(10), stream.size() + 3}) {
      KnnAccumulator acc(k, stream.size());
      for (size_t i = 0; i < stream.size(); ++i) {
        acc.Offer(stream[i].id, stream[i].distance);
        std::vector<Neighbor> want = SortThenTruncate(
            {stream.begin(), stream.begin() + ptrdiff_t(i + 1)}, k);
        EXPECT_EQ(acc.tau(), want.size() < k ? kInf : want.back().distance)
            << "trial " << trial << " k=" << k;
      }
      EXPECT_EQ(acc.Take(), SortThenTruncate(stream, k)) << "k=" << k;
    }
  }
}

// ---------------------------------------------------------------------
// Cross-backend equivalence: every backend must return identical k-NN
// and range results through the SpatialIndex interface.

class BackendEquivalenceTest
    : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendEquivalenceTest, MatchesLinearScan) {
  const size_t kDims = 6;
  const size_t kPoints = 600;
  auto rows = RandomVectors(kPoints, kDims, 11);

  BackendOptions opts;
  opts.bucket_size = 16;
  std::unique_ptr<SpatialIndex> index =
      MakeSpatialIndex(GetParam(), kDims, opts);
  ASSERT_NE(index, nullptr);
  auto gold = MakeSpatialIndex(BackendKind::kLinearScan, kDims);

  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
    ASSERT_TRUE(gold->Insert(rows[i], PointId(i)).ok());
  }
  EXPECT_EQ(index->size(), kPoints);
  EXPECT_EQ(index->dimensions(), kDims);

  auto queries = RandomVectors(24, kDims, 13);
  for (const auto& q : queries) {
    for (size_t k : {1u, 5u, 20u}) {
      std::vector<Neighbor> got = index->KnnSearch(q, k);
      std::vector<Neighbor> want = gold->KnnSearch(q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << index->name() << " k=" << k;
        EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance);
      }
    }
    for (double radius : {0.4, 0.9}) {
      std::vector<Neighbor> got = index->RangeSearch(q, radius);
      std::vector<Neighbor> want = gold->RangeSearch(q, radius);
      ASSERT_EQ(got.size(), want.size()) << index->name();
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << index->name();
        EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance);
      }
    }
  }
}

// On grid data (grid_ties.h) every backend must keep the points tied at
// the k-th distance with the smallest PointIds, as the scan does. A
// metric tree that broke those ties by store slot kept the
// first-inserted points instead.
TEST_P(BackendEquivalenceTest, GridTiesWithShuffledIdsMatchLinearScan) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GridTies grid = MakeGridTies(seed);
    BackendOptions opts;
    opts.bucket_size = 2;
    std::unique_ptr<SpatialIndex> index =
        MakeSpatialIndex(GetParam(), grid.dims, opts);
    auto gold = MakeSpatialIndex(BackendKind::kLinearScan, grid.dims);
    for (const KdPoint& p : grid.points) {
      ASSERT_TRUE(index->Insert(p.coords, p.id).ok());
      ASSERT_TRUE(gold->Insert(p.coords, p.id).ok());
    }
    Rng rng(seed + 1000);
    for (int q = 0; q < 20; ++q) {
      std::vector<double> query = GridQuery(grid.dims, &rng);
      for (size_t k = 1; k <= 5; ++k) {
        EXPECT_EQ(index->KnnSearch(query, k), gold->KnnSearch(query, k))
            << index->name() << " k=" << k;
      }
      for (double radius : {0.5, 1.0, 1.5}) {
        EXPECT_EQ(index->RangeSearch(query, radius),
                  gold->RangeSearch(query, radius))
            << index->name() << " radius=" << radius;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalenceTest,
                         ::testing::Values(BackendKind::kKdTree,
                                           BackendKind::kVpTree,
                                           BackendKind::kMTree,
                                           BackendKind::kLinearScan),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

TEST(BackendTest, RemovalSupportMatchesContract) {
  std::vector<double> p = {0.5, -0.5};
  auto kdtree = MakeSpatialIndex(BackendKind::kKdTree, 2);
  ASSERT_TRUE(kdtree->Insert(p, 7).ok());
  EXPECT_TRUE(kdtree->Remove(p, 7).ok());
  EXPECT_EQ(kdtree->size(), 0u);

  auto scan = MakeSpatialIndex(BackendKind::kLinearScan, 2);
  ASSERT_TRUE(scan->Insert(p, 7).ok());
  EXPECT_TRUE(scan->Remove(p, 7).ok());
  EXPECT_EQ(scan->size(), 0u);

  auto vp = MakeSpatialIndex(BackendKind::kVpTree, 2);
  ASSERT_TRUE(vp->Insert(p, 7).ok());
  EXPECT_TRUE(vp->Remove(p, 7).IsNotSupported());

  auto mt = MakeSpatialIndex(BackendKind::kMTree, 2);
  ASSERT_TRUE(mt->Insert(p, 7).ok());
  EXPECT_TRUE(mt->Remove(p, 7).IsNotSupported());
}

TEST(BackendTest, InsertValidatesDimensions) {
  for (BackendKind kind :
       {BackendKind::kKdTree, BackendKind::kVpTree, BackendKind::kMTree,
        BackendKind::kLinearScan}) {
    auto index = MakeSpatialIndex(kind, 3);
    EXPECT_TRUE(
        index->Insert({1.0, 2.0}, 1).IsInvalidArgument())
        << BackendName(kind);
  }
}

TEST(BackendTest, WrongArityQueriesReturnEmpty) {
  // The raw-pointer kernel reads exactly dimensions() doubles; a short
  // (or long) query must be rejected up front, never read out of
  // bounds.
  for (BackendKind kind :
       {BackendKind::kKdTree, BackendKind::kVpTree, BackendKind::kMTree,
        BackendKind::kLinearScan}) {
    auto index = MakeSpatialIndex(kind, 3);
    ASSERT_TRUE(index->Insert({1.0, 2.0, 3.0}, 1).ok());
    EXPECT_TRUE(index->KnnSearch({1.0, 2.0}, 1).empty())
        << BackendName(kind);
    EXPECT_TRUE(index->RangeSearch({1.0, 2.0, 3.0, 4.0}, 10.0).empty())
        << BackendName(kind);
  }
}

}  // namespace
}  // namespace semtree
