// Copyright 2026 The SemTree Authors
//
// Tests for the distributed SemTree: insertion, partitioning, search
// correctness versus the linear-scan baseline, statistics and the
// protocol's behaviour under concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "kdtree/linear_scan.h"
#include "semtree/protocol.h"
#include "semtree/semtree.h"

namespace semtree {
namespace {

std::vector<KdPoint> RandomPoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i].id = i;
    points[i].coords.resize(dims);
    for (double& c : points[i].coords) c = rng.UniformDouble(-1.0, 1.0);
  }
  return points;
}

TEST(SemTreeTest, CreateValidatesOptions) {
  SemTreeOptions bad;
  bad.dimensions = 0;
  EXPECT_FALSE(SemTree::Create(bad).ok());
  bad = SemTreeOptions{};
  bad.bucket_size = 0;
  EXPECT_FALSE(SemTree::Create(bad).ok());
  bad = SemTreeOptions{};
  bad.max_partitions = 0;
  EXPECT_FALSE(SemTree::Create(bad).ok());
}

TEST(SemTreeTest, EmptyTreeQueries) {
  SemTreeOptions opts;
  opts.dimensions = 3;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->size(), 0u);
  EXPECT_EQ((*tree)->PartitionCount(), 1u);
  auto knn = (*tree)->KnnSearch({0, 0, 0}, 5);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
  auto range = (*tree)->RangeSearch({0, 0, 0}, 1.0);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(range->empty());
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST(SemTreeTest, DimensionMismatchRejected) {
  SemTreeOptions opts;
  opts.dimensions = 3;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)->Insert({1.0}, 0).IsInvalidArgument());
  EXPECT_TRUE((*tree)->KnnSearch({1.0}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(
      (*tree)->RangeSearch({1.0}, 1.0).status().IsInvalidArgument());
  EXPECT_TRUE(
      (*tree)->RangeSearch({1, 2, 3}, -1.0).status().IsInvalidArgument());
}

TEST(SemTreeTest, SinglePartitionMatchesLinearScan) {
  const size_t kDims = 4;
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 8;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(1000, kDims, 3);
  LinearScanIndex scan(kDims);
  for (const auto& p : points) {
    ASSERT_TRUE((*tree)->Insert(p.coords, p.id).ok());
    ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  }
  EXPECT_EQ((*tree)->size(), 1000u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  Rng rng(5);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> query(kDims);
    for (double& c : query) c = rng.UniformDouble(-1.0, 1.0);
    auto knn = (*tree)->KnnSearch(query, 7);
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(*knn, scan.KnnSearch(query, 7));
    auto range = (*tree)->RangeSearch(query, 0.4);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, scan.RangeSearch(query, 0.4));
  }
}

TEST(SemTreeTest, BuildPartitionSpreadsData) {
  const size_t kDims = 2;
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 16;
  opts.max_partitions = 5;
  opts.partition_capacity = 200;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(2000, kDims, 7);
  ASSERT_TRUE((*tree)->BulkInsert(points).ok());
  EXPECT_EQ((*tree)->size(), 2000u);
  EXPECT_EQ((*tree)->PartitionCount(), 5u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());

  auto stats = (*tree)->AllPartitionStats();
  ASSERT_EQ(stats.size(), 5u);
  size_t total = 0;
  size_t storing = 0;
  size_t edges = 0;
  for (const auto& s : stats) {
    total += s.points;
    storing += (s.points > 0);
    edges += s.edge_nodes;
  }
  EXPECT_EQ(total, 2000u);
  EXPECT_GE(storing, 2u);  // Data really is distributed.
  EXPECT_GE(edges, 1u);    // Cross-partition links exist.
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the layout build-partition (Fig. 2) leaves behind, and what the
// inserts cost on the interconnect: one client inserts a fixed corpus
// until partition 0 saturates and its leaves move to fresh partitions.
// Every 37th point repeats one coordinate, so an overflowing
// all-duplicates leaf moves too. Each moved leaf holds at most
// bucket_size points or only duplicates, so its new partition hosts it
// as one leaf with its rows in order, whatever the split policy: both
// policies must give the same bytes.
TEST(SemTreeTest, BuildPartitionLayoutIsGolden) {
  const size_t kDims = 3;
  auto points = RandomPoints(3000, kDims, 23);
  for (size_t i = 0; i < points.size(); i += 37) {
    points[i].coords = {0.25, -0.5, 0.75};
  }
  // Captured when moved leaves had their own adopt-leaf message.
  const std::vector<size_t> kGoldenPoints = {0, 634, 639, 590, 551, 586};
  const uint64_t kGoldenHash = 4618166591431932052ull;
  // {messages, bytes, calls, forwards}. Since build-partition ships its
  // leaves without waiting, the Insert that triggered it waits for one
  // stats round over the 5 new partitions: 5 calls, 10 messages and
  // 5 * (16 + sizeof(PartitionStats)) = 480 bytes more than
  // {8744, 433440, 3072, 2600}.
  const std::vector<uint64_t> kGoldenNetwork = {8754, 433920, 3077, 2600};
  for (SplitPolicy policy :
       {SplitPolicy::kMedian, SplitPolicy::kCentroid}) {
    SCOPED_TRACE(SplitPolicyName(policy));
    SemTreeOptions opts;
    opts.dimensions = kDims;
    opts.bucket_size = 8;
    opts.max_partitions = 6;
    opts.partition_capacity = 400;
    opts.split_policy = policy;
    auto tree = SemTree::Create(opts);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE((*tree)->BulkInsert(points).ok());
    ClusterStats net = (*tree)->NetworkStats();
    EXPECT_EQ((std::vector<uint64_t>{net.messages, net.bytes, net.calls,
                                     net.forwards}),
              kGoldenNetwork);
    EXPECT_EQ((*tree)->PartitionCount(), kGoldenPoints.size());
    persist::ByteWriter w;
    ASSERT_TRUE((*tree)->SaveTo(&w).ok());
    EXPECT_EQ(Fnv1a(w.bytes()), kGoldenHash);
    std::vector<size_t> per_partition;
    for (const PartitionStats& s : (*tree)->AllPartitionStats()) {
      per_partition.push_back(s.points);
    }
    EXPECT_EQ(per_partition, kGoldenPoints);
    EXPECT_TRUE((*tree)->CheckInvariants().ok());
  }
}

// Build-partition ships each moved leaf to its new partition without
// waiting, and links the leaf's parent to the root that partition will
// give it. Nothing may overtake a shipment: the new partition's FIFO
// queue runs the build before anything forwarded through the new link.
// One writer inserts the points one at a time and finds each one right
// after its Insert returns; two readers meanwhile compare k-NN answers
// with a linear scan over the points inserted before each query. The
// latency model's network thread delivers every message.
TEST(SemTreeTest, NothingOvertakesAMovedLeaf) {
  constexpr size_t kDims = 4;
  constexpr size_t kPoints = 2000;
  constexpr size_t kK = 5;
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 8;
  opts.max_partitions = 6;
  opts.partition_capacity = 200;
  opts.network_latency = std::chrono::microseconds(20);
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  const std::vector<KdPoint> points = RandomPoints(kPoints, kDims, 59);
  std::atomic<size_t> inserted{0};  // Points whose Insert has returned.

  std::thread writer([&]() {
    auto insert_all = [&]() {
      for (const KdPoint& p : points) {
        ASSERT_TRUE((*tree)->Insert(p.coords, p.id).ok());
        inserted.store(p.id + 1);
        auto hit = (*tree)->KnnSearch(p.coords, 1);
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        ASSERT_EQ(hit->size(), 1u) << "point " << p.id;
        ASSERT_EQ((*hit)[0].id, p.id);
        ASSERT_EQ((*hit)[0].distance, 0.0);
      }
    };
    insert_all();
    inserted.store(kPoints);  // Releases the readers after a failure too.
  });
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    LinearScanIndex scan(kDims);
    size_t scanned = 0;
    for (size_t before; (before = inserted.load()) < kPoints;) {
      if (before == 0) {
        std::this_thread::yield();
        continue;
      }
      const std::vector<double>& query = points[rng.Uniform(before)].coords;
      auto knn = (*tree)->KnnSearch(query, kK);
      const size_t after = inserted.load();
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      for (; scanned < before; ++scanned) {
        ASSERT_TRUE(scan.Insert(points[scanned].coords, scanned).ok());
      }
      // Points inserted while the query ran (ids up to `after`, the one
      // in flight) may join the answer and push older ones out; the
      // older ones left must be the linear scan's nearest.
      std::vector<Neighbor> older;
      for (const Neighbor& n : *knn) {
        if (n.id < before) {
          older.push_back(n);
        } else {
          ASSERT_LE(n.id, after);
        }
      }
      ASSERT_LE(knn->size(), kK);
      // Not full: every point inserted before the query is in it.
      if (knn->size() < kK) {
        ASSERT_EQ(older.size(), before);
      }
      std::vector<Neighbor> expected = scan.KnnSearch(query, kK);
      expected.resize(older.size());
      ASSERT_EQ(older, expected);
    }
  };
  std::thread reader_a(reader, 61);
  std::thread reader_b(reader, 67);
  writer.join();
  reader_a.join();
  reader_b.join();
  EXPECT_EQ((*tree)->PartitionCount(), 6u);
  EXPECT_EQ((*tree)->size(), kPoints);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST(SemTreeTest, SearchItemBytesChargesEachFrameItsOwnFields) {
  // A range frame carries only its partition and node; the status,
  // split dimension, far child and gaps are k-NN fields.
  protocol::SearchItem range;
  range.type = QueryType::kRange;
  range.query = {0.1, 0.2, 0.3};
  range.rs.resize(2);
  range.stack.resize(3);
  range.remote.resize(1);
  EXPECT_EQ(protocol::SearchItemBytes(range),
            3 * sizeof(double) + 2 * sizeof(Neighbor) +
                3 * 2 * sizeof(int32_t) + 1 * sizeof(ChildRef) + 32);

  protocol::SearchItem knn;
  knn.type = QueryType::kKnn;
  knn.query = {0.1, 0.2, 0.3};
  knn.gap = {0.0, 0.5, 0.0};
  knn.rs.resize(2);
  knn.stack.resize(3);
  EXPECT_EQ(protocol::SearchItemBytes(knn),
            (3 + 3) * sizeof(double) + 2 * sizeof(Neighbor) +
                3 * sizeof(protocol::KnnFrame) + 32);
}

TEST(SemTreeTest, DistributedMatchesLinearScan) {
  const size_t kDims = 4;
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 8;
  opts.max_partitions = 7;
  opts.partition_capacity = 100;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(1500, kDims, 11);
  LinearScanIndex scan(kDims);
  for (const auto& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  ASSERT_TRUE((*tree)->BulkInsert(points).ok());
  ASSERT_GT((*tree)->PartitionCount(), 1u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());

  Rng rng(13);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> query(kDims);
    for (double& c : query) c = rng.UniformDouble(-1.2, 1.2);
    for (size_t k : {1u, 3u, 10u}) {
      auto knn = (*tree)->KnnSearch(query, k);
      ASSERT_TRUE(knn.ok());
      EXPECT_EQ(*knn, scan.KnnSearch(query, k)) << "k=" << k;
    }
    for (double radius : {0.1, 0.5, 1.5}) {
      auto range = (*tree)->RangeSearch(query, radius);
      ASSERT_TRUE(range.ok());
      EXPECT_EQ(*range, scan.RangeSearch(query, radius));
    }
  }
}

TEST(SemTreeTest, DistributedQueriesCrossPartitions) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 4;
  opts.max_partitions = 9;
  opts.partition_capacity = 50;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkInsert(RandomPoints(1000, 2, 17)).ok());
  ASSERT_GT((*tree)->PartitionCount(), 1u);

  DistributedSearchStats stats;
  auto knn = (*tree)->KnnSearch({0.0, 0.0}, 20, &stats);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 20u);
  // More than one request/response pair: the item was forwarded.
  EXPECT_GT(stats.messages, 2u);

  DistributedSearchStats rstats;
  auto range = (*tree)->RangeSearch({0.0, 0.0}, 1.0, &rstats);
  ASSERT_TRUE(range.ok());
  EXPECT_GT(rstats.partitions_visited, 1u);
}

// A k = 1 query at a stored point finds it at distance 0 in the first
// leaf it reaches. Bulk-load split values are midpoints between distinct
// coordinates, so no stored point lies on a splitting plane: every far
// region's bound is positive, each backward visit pops where the item
// is, and the stack drains in the region's partition. That costs the
// request, one forward from the skeleton's partition and the response;
// sending the item back for the skeleton's backward visits cost a
// fourth message and a third partition visit.
TEST(SemTreeTest, KnnAtStoredPointAnswersFromItsPartition) {
  SemTreeOptions opts;
  opts.dimensions = 4;
  opts.max_partitions = 9;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(20000, 4, 41);
  ASSERT_TRUE((*tree)->BulkLoadBalanced(points).ok());
  ASSERT_EQ((*tree)->PartitionCount(), 9u);
  Rng rng(43);
  for (int q = 0; q < 200; ++q) {
    const KdPoint& p = points[rng.Uniform(points.size())];
    DistributedSearchStats stats;
    auto hits = (*tree)->KnnSearch(p.coords, 1, &stats);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].id, p.id);
    EXPECT_EQ(stats.messages, 3u) << "query " << q;
    EXPECT_EQ(stats.partitions_visited, 2u) << "query " << q;
  }
}

TEST(SemTreeTest, PerQueryMessageCountsIgnoreOtherClients) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 4;
  opts.max_partitions = 9;
  opts.partition_capacity = 50;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkInsert(RandomPoints(1000, 2, 23)).ok());
  ASSERT_GT((*tree)->PartitionCount(), 1u);

  // Mixed queries: k-NN and range, exact and budgeted.
  Rng rng(29);
  std::vector<SpatialQuery> queries;
  for (size_t i = 0; i < 24; ++i) {
    std::vector<double> q = {rng.UniformDouble(-1.0, 1.0),
                             rng.UniformDouble(-1.0, 1.0)};
    SearchBudget budget =
        i % 3 == 2 ? SearchBudget::MaxNodes(6) : SearchBudget::Exact();
    queries.push_back(
        i % 2 == 0 ? SpatialQuery::Knn(q, 1 + i % 9, budget)
                   : SpatialQuery::Range(q, 0.1 + 0.05 * double(i % 4),
                                         budget));
  }
  auto run = [&](const SpatialQuery& q, DistributedSearchStats* stats) {
    auto r = q.type == QueryType::kKnn
                 ? (*tree)->KnnSearch(q.coords, q.k, q.budget, stats)
                 : (*tree)->RangeSearch(q.coords, q.radius, q.budget,
                                        stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };

  // One client: each query's own count is the interconnect's delta.
  std::vector<DistributedSearchStats> single(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    uint64_t before = (*tree)->NetworkStats().messages;
    run(queries[i], &single[i]);
    EXPECT_EQ(single[i].messages, (*tree)->NetworkStats().messages - before)
        << "query " << i;
    EXPECT_GE(single[i].messages, 2u) << "query " << i;
  }

  // Four clients at once, each starting at a different query: the
  // global counter mixes their traffic, the per-query counts do not.
  constexpr size_t kClients = 4;
  std::vector<std::vector<DistributedSearchStats>> seen(
      kClients, std::vector<DistributedSearchStats>(queries.size()));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t j = 0; j < queries.size(); ++j) {
        size_t i = (j + c * queries.size() / kClients) % queries.size();
        run(queries[i], &seen[c][i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(seen[c][i].messages, single[i].messages)
          << "client " << c << " query " << i;
      EXPECT_EQ(seen[c][i].partitions_visited, single[i].partitions_visited)
          << "client " << c << " query " << i;
    }
  }
}

TEST(SemTreeTest, ConcurrentClientInsertsAllLand) {
  SemTreeOptions opts;
  opts.dimensions = 3;
  opts.bucket_size = 16;
  opts.max_partitions = 5;
  opts.partition_capacity = 150;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(3000, 3, 19);
  ASSERT_TRUE((*tree)->BulkInsert(points, /*client_threads=*/8).ok());
  EXPECT_EQ((*tree)->size(), 3000u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  // Every point findable at distance zero.
  LinearScanIndex scan(3);
  for (const auto& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  Rng rng(23);
  for (int q = 0; q < 15; ++q) {
    const KdPoint& p = points[rng.Uniform(points.size())];
    auto hit = (*tree)->KnnSearch(p.coords, 1);
    ASSERT_TRUE(hit.ok());
    ASSERT_EQ(hit->size(), 1u);
    EXPECT_DOUBLE_EQ((*hit)[0].distance, 0.0);
  }
}

TEST(SemTreeTest, ConcurrentBuildPartitionsKeepPartitionAndNodeIds) {
  // Eight clients each saturate their own bulk-loaded region at once,
  // so eight build-partition handlers create partitions concurrently.
  // Messages address a partition by its compute node's id, so every
  // partition must live on the node with its own id.
  constexpr size_t kDims = 2;
  constexpr size_t kRegions = 8;
  constexpr size_t kBulkPerRegion = 100;
  constexpr size_t kInsertsPerRegion = 60;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SemTreeOptions opts;
    opts.dimensions = kDims;
    opts.max_partitions = 160;
    opts.bulk_load_partitions = kRegions;
    opts.partition_capacity = 104;
    auto tree = SemTree::Create(opts);
    ASSERT_TRUE(tree.ok());
    // Region r spans x in [r, r + 1), so the bulk load's median cuts
    // give each region its own partition.
    Rng rng(seed);
    PointId next_id = 0;
    auto in_region = [&](size_t r) {
      return KdPoint{{double(r) + rng.UniformDouble(0.0, 1.0),
                      rng.UniformDouble(0.0, 1.0)},
                     next_id++};
    };
    std::vector<KdPoint> all;
    for (size_t r = 0; r < kRegions; ++r) {
      for (size_t i = 0; i < kBulkPerRegion; ++i) all.push_back(in_region(r));
    }
    ASSERT_TRUE((*tree)->BulkLoadBalanced(all).ok());
    std::vector<std::vector<KdPoint>> inserts(kRegions);
    for (size_t r = 0; r < kRegions; ++r) {
      for (size_t i = 0; i < kInsertsPerRegion; ++i) {
        inserts[r].push_back(in_region(r));
        all.push_back(inserts[r].back());
      }
    }
    std::atomic<int> failed{0};
    std::vector<std::thread> clients;
    for (size_t r = 0; r < kRegions; ++r) {
      clients.emplace_back([&, r]() {
        for (const KdPoint& p : inserts[r]) {
          if (!(*tree)->Insert(p.coords, p.id).ok()) failed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ASSERT_EQ(failed.load(), 0);

    // Before any search: a partition on another partition's node
    // routes searches into the wrong arena.
    std::vector<PartitionStats> stats = (*tree)->AllPartitionStats();
    ASSERT_EQ(stats.size(), (*tree)->PartitionCount());
    for (size_t i = 0; i < stats.size(); ++i) {
      ASSERT_EQ(stats[i].id, static_cast<int32_t>(i));
    }
    ASSERT_TRUE((*tree)->CheckInvariants().ok());
    LinearScanIndex scan(kDims);
    for (const KdPoint& p : all) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
    for (int q = 0; q < 10; ++q) {
      std::vector<double> query = {rng.UniformDouble(-0.5, 8.5),
                                   rng.UniformDouble(-0.5, 1.5)};
      auto knn = (*tree)->KnnSearch(query, 10);
      ASSERT_TRUE(knn.ok());
      EXPECT_EQ(*knn, scan.KnnSearch(query, 10));
    }
  }
}

TEST(SemTreeTest, SmallPartitionCapacitySpreadsOverEverySeat) {
  // A partition saturates once it holds 31 points, far below the
  // corpus, so build-partition takes every seat.
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 4;
  opts.max_partitions = 4;
  opts.partition_capacity = 31;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkInsert(RandomPoints(400, 2, 29)).ok());
  EXPECT_EQ((*tree)->PartitionCount(), 4u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST(SemTreeTest, CapacityNeverReachedKeepsOnePartition) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.max_partitions = 9;
  opts.partition_capacity = SIZE_MAX;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkInsert(RandomPoints(500, 2, 31)).ok());
  EXPECT_EQ((*tree)->PartitionCount(), 1u);
}

TEST(SemTreeTest, NetworkLatencySlowsButStaysCorrect) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 8;
  opts.max_partitions = 3;
  opts.partition_capacity = 60;
  opts.network_latency = std::chrono::microseconds(50);
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(300, 2, 37);
  LinearScanIndex scan(2);
  for (const auto& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  ASSERT_TRUE((*tree)->BulkInsert(points, 4).ok());
  EXPECT_EQ((*tree)->size(), 300u);
  auto knn = (*tree)->KnnSearch({0.1, -0.2}, 5);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(*knn, scan.KnnSearch({0.1, -0.2}, 5));
  EXPECT_GT((*tree)->NetworkStats().messages, 0u);
}

TEST(SemTreeTest, StatsReportRoutingOnlyAndStoringPartitions) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 4;
  opts.max_partitions = 8;
  opts.partition_capacity = 40;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkInsert(RandomPoints(800, 2, 41)).ok());
  auto stats = (*tree)->AllPartitionStats();
  ASSERT_EQ(stats.size(), (*tree)->PartitionCount());
  // Paper: "some partitions are used just for routing and others for
  // storing data" — with enough churn the root partition ends up
  // mostly routing.
  bool some_routing_heavy = false;
  for (const auto& s : stats) {
    EXPECT_EQ(s.nodes, s.leaves + s.routing) << s.ToString();
    if (s.routing > 0 && s.points == 0) some_routing_heavy = true;
    EXPECT_FALSE(s.ToString().empty());
  }
  EXPECT_TRUE(some_routing_heavy || stats[0].points == 0 ||
              stats[0].edge_nodes > 0);
}

}  // namespace
}  // namespace semtree
