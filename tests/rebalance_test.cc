// Copyright 2026 The SemTree Authors
//
// Tests for the online skew-aware partition rebalancer (DESIGN.md §12):
// splits are lossless and query-invisible (results stay byte-identical
// to a never-rebalanced twin), stop cleanly when seats run out, load
// counters survive snapshot round-trips, and the whole machinery is
// clean under concurrent readers and writers (the TSan `concurrency`
// leg).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/distance.h"
#include "persist/wire.h"
#include "semtree/semtree.h"
#include "workload/workload_gen.h"

namespace semtree {
namespace {

constexpr size_t kDims = 4;

std::vector<KdPoint> SkewedCorpus(size_t n, uint64_t seed = 42) {
  // Contiguous cluster assignment: the low-key prefix is spatially
  // coherent, so hammering it loads few partitions (the skew the
  // rebalancer exists to dissipate).
  return workload::MakeContiguousClusteredCorpus(n, kDims, 8, seed);
}

SemTreeOptions RebalanceOpts() {
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 16;
  opts.max_partitions = 12;
  // Leave seats below the cap for splits.
  opts.bulk_load_partitions = 2;
  opts.rebalance.min_split_points = 64;
  opts.rebalance.split_load_factor = 1.5;
  opts.rebalance.min_total_load = 0.5;
  return opts;
}

std::unique_ptr<SemTree> MakeLoadedTree(const SemTreeOptions& opts,
                                        const std::vector<KdPoint>& corpus) {
  auto made = SemTree::Create(opts);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  Status st = (*made)->BulkLoadBalanced(corpus);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return std::move(*made);
}

// Queries the hot key prefix so the partitions covering it accumulate
// load score while the rest stay cold.
void HammerHotKeys(SemTree* tree, const std::vector<KdPoint>& corpus,
                   size_t queries, size_t hot_keys) {
  for (size_t i = 0; i < queries; ++i) {
    auto r = tree->KnnSearch(corpus[i % hot_keys].coords, 8);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

// Ticks until `done` observes the wanted counters (or the cap runs
// out), interleaving hot-key traffic so the load picture persists
// across the per-tick decay.
template <typename DonePredicate>
bool DriveRebalance(SemTree* tree, const std::vector<KdPoint>& corpus,
                    size_t hot_keys, DonePredicate done,
                    size_t max_ticks = 60) {
  for (size_t t = 0; t < max_ticks; ++t) {
    HammerHotKeys(tree, corpus, 120, hot_keys);
    Status st = tree->RebalanceTick();
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (done(tree->DebugStats())) return true;
  }
  return done(tree->DebugStats());
}

// Byte-identity of sampled k-NN and range results against a twin tree.
// Distances are the same arithmetic on the same point sets and results
// sort by (distance, id), so EXPECT_EQ on the vectors is exact.
void ExpectQueriesIdentical(const SemTree& got, const SemTree& want,
                            const std::vector<KdPoint>& corpus) {
  for (size_t i = 0; i < corpus.size(); i += 37) {
    auto gk = got.KnnSearch(corpus[i].coords, 10);
    auto wk = want.KnnSearch(corpus[i].coords, 10);
    ASSERT_TRUE(gk.ok()) << gk.status().ToString();
    ASSERT_TRUE(wk.ok()) << wk.status().ToString();
    EXPECT_EQ(*gk, *wk) << "knn diverged at corpus key " << i;
    auto gr = got.RangeSearch(corpus[i].coords, 0.3);
    auto wr = want.RangeSearch(corpus[i].coords, 0.3);
    ASSERT_TRUE(gr.ok()) << gr.status().ToString();
    ASSERT_TRUE(wr.ok()) << wr.status().ToString();
    EXPECT_EQ(*gr, *wr) << "range diverged at corpus key " << i;
  }
}

TEST(RebalanceTest, TickOnIdleTreeIsNoop) {
  auto corpus = SkewedCorpus(500);
  auto tree = MakeLoadedTree(RebalanceOpts(), corpus);
  ASSERT_TRUE(tree->RebalanceTick().ok());
  SemTreeDebugStats dbg = tree->DebugStats();
  EXPECT_EQ(dbg.rebalance.ticks, 1u);
  EXPECT_EQ(dbg.rebalance.splits, 0u);
  EXPECT_EQ(dbg.rebalance.merges, 0u);
  EXPECT_EQ(dbg.rebalance.migrations, 0u);
  EXPECT_EQ(dbg.total_points, corpus.size());
  EXPECT_EQ(dbg.rebalance_epoch % 2, 0u);
}

TEST(RebalanceTest, SplitIsLosslessAndQueryInvisible) {
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(RebalanceOpts(), corpus);
  auto twin = MakeLoadedTree(RebalanceOpts(), corpus);

  ASSERT_TRUE(DriveRebalance(tree.get(), corpus, /*hot_keys=*/60,
                             [](const SemTreeDebugStats& d) {
                               return d.rebalance.splits >= 1;
                             }));
  SemTreeDebugStats dbg = tree->DebugStats();
  EXPECT_GE(dbg.rebalance.splits, 1u);
  EXPECT_GT(dbg.rebalance.points_moved, 0u);
  EXPECT_EQ(dbg.rebalance_epoch % 2, 0u);  // No step left in flight.
  EXPECT_EQ(tree->size(), corpus.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  ExpectQueriesIdentical(*tree, *twin, corpus);
}

TEST(RebalanceTest, SplitsStopWhenSeatsRunOut) {
  SemTreeOptions opts = RebalanceOpts();
  // The root plus two data partitions leave one seat.
  opts.max_partitions = 4;
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  auto twin = MakeLoadedTree(opts, corpus);

  ASSERT_TRUE(DriveRebalance(tree.get(), corpus, /*hot_keys=*/60,
                             [](const SemTreeDebugStats& d) {
                               return d.rebalance.splits >= 1;
                             }));
  const SemTreeDebugStats first = tree->DebugStats();
  ASSERT_EQ(first.rebalance.splits, 1u);
  ASSERT_EQ(tree->PartitionCount(), 4u);
  ASSERT_EQ(first.partitions.size(), 4u);
  // Both halves adopted into the last seat.
  EXPECT_EQ(first.partitions[3].points, first.rebalance.points_moved);

  // The same hot traffic keeps the partition overloaded, but with no
  // seat left a tick only reads the load counters.
  for (size_t t = 0; t < 10; ++t) {
    HammerHotKeys(tree.get(), corpus, 120, 60);
    const uint64_t before_tick = tree->NetworkStats().messages;
    ASSERT_TRUE(tree->RebalanceTick().ok());
    const uint64_t tick = tree->NetworkStats().messages - before_tick;
    const uint64_t before_stats = tree->NetworkStats().messages;
    tree->AllPartitionStats();
    const uint64_t stats_round =
        tree->NetworkStats().messages - before_stats;
    EXPECT_EQ(tick, stats_round) << "tick " << t;
  }
  const SemTreeDebugStats last = tree->DebugStats();
  EXPECT_EQ(last.rebalance.splits, 1u) << last.ToString();
  EXPECT_EQ(last.rebalance.points_moved, first.rebalance.points_moved);
  EXPECT_EQ(tree->PartitionCount(), 4u);
  EXPECT_EQ(tree->size(), corpus.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  ExpectQueriesIdentical(*tree, *twin, corpus);
}

TEST(RebalanceTest, ChainedActionsStayLossless) {
  SemTreeOptions opts = RebalanceOpts();
  auto corpus = SkewedCorpus(3000);
  auto tree = MakeLoadedTree(opts, corpus);
  auto twin = MakeLoadedTree(opts, corpus);

  // Rotate the hot spot through the key space so splits chain until
  // the seats run out; verify losslessness after every completed tick,
  // not only at the end.
  for (size_t round = 0; round < 40; ++round) {
    size_t hot_base = (round * 331) % (corpus.size() - 60);
    for (size_t i = 0; i < 120; ++i) {
      auto r = tree->KnnSearch(corpus[hot_base + (i % 60)].coords, 8);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_TRUE(tree->RebalanceTick().ok());
    ASSERT_EQ(tree->size(), corpus.size()) << "round " << round;
  }
  SemTreeDebugStats dbg = tree->DebugStats();
  EXPECT_GE(dbg.rebalance.splits, 1u) << dbg.ToString();
  EXPECT_TRUE(tree->CheckInvariants().ok());
  ExpectQueriesIdentical(*tree, *twin, corpus);
}

TEST(RebalanceTest, LoadCountersSurviveSnapshotRoundTrip) {
  auto corpus = SkewedCorpus(1500);
  auto tree = MakeLoadedTree(RebalanceOpts(), corpus);
  ASSERT_TRUE(DriveRebalance(tree.get(), corpus, /*hot_keys=*/50,
                             [](const SemTreeDebugStats& d) {
                               return d.rebalance.splits >= 1;
                             }));
  std::vector<PartitionStats> before = tree->AllPartitionStats();

  persist::ByteWriter w;
  ASSERT_TRUE(tree->SaveTo(&w).ok());
  persist::ByteReader r(w.bytes());
  auto loaded = SemTree::LoadFrom(&r, RebalanceOpts());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::vector<PartitionStats> after = (*loaded)->AllPartitionStats();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].points, before[i].points) << "partition " << i;
    EXPECT_EQ(after[i].load_ops, before[i].load_ops) << "partition " << i;
    EXPECT_EQ(after[i].load_distances, before[i].load_distances)
        << "partition " << i;
    EXPECT_EQ(after[i].rebalances, before[i].rebalances)
        << "partition " << i;
  }
  EXPECT_EQ((*loaded)->size(), tree->size());
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());
  ExpectQueriesIdentical(**loaded, *tree, corpus);
}

TEST(RebalanceTest, DebugStatsReportsTheTree) {
  auto corpus = SkewedCorpus(800);
  auto tree = MakeLoadedTree(RebalanceOpts(), corpus);
  HammerHotKeys(tree.get(), corpus, 50, 20);
  SemTreeDebugStats dbg = tree->DebugStats();
  EXPECT_EQ(dbg.partitions.size(), tree->PartitionCount());
  EXPECT_EQ(dbg.total_points, corpus.size());
  double total_ops = 0.0;
  for (const PartitionStats& s : dbg.partitions) total_ops += s.load_ops;
  EXPECT_GT(total_ops, 0.0);  // The hammering was recorded.
  EXPECT_FALSE(dbg.ToString().empty());
}

TEST(RebalanceTest, StartStopRebalancerLifecycle) {
  auto corpus = SkewedCorpus(500);
  auto tree = MakeLoadedTree(RebalanceOpts(), corpus);
  ASSERT_TRUE(tree->StartRebalancer().ok());
  EXPECT_TRUE(tree->StartRebalancer().IsFailedPrecondition());
  tree->StopRebalancer();
  tree->StopRebalancer();  // Idempotent.
  ASSERT_TRUE(tree->StartRebalancer().ok());
  tree->StopRebalancer();
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

// A mid-step answer may miss members (DESIGN.md §12), but it never
// fabricates one: every neighbor is a stored point at its true
// distance, in (distance, id) order, and range members lie within the
// radius. k-NN still returns exactly k: no step takes every point out
// of reach at once.
void ExpectSoundAnswer(const std::vector<Neighbor>& got,
                       const SpatialQuery& q,
                       const std::vector<KdPoint>& corpus) {
  for (size_t i = 0; i < got.size(); ++i) {
    const Neighbor& n = got[i];
    ASSERT_LT(n.id, corpus.size());
    EXPECT_EQ(n.distance, EuclideanDistance(q.coords, corpus[n.id].coords))
        << "id " << n.id;
    if (i > 0) {
      EXPECT_TRUE(NeighborDistanceThenId(got[i - 1], n));
    }
    if (q.type == QueryType::kRange) {
      EXPECT_LE(n.distance, q.radius);
    }
  }
  if (q.type == QueryType::kKnn) {
    EXPECT_EQ(got.size(), q.k);
  }
}

TEST(RebalanceTest, ConcurrentReadersSeeConsistentResults) {
  SemTreeOptions opts = RebalanceOpts();
  opts.rebalance.interval = std::chrono::milliseconds(1);
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  ASSERT_TRUE(tree->StartRebalancer().ok());

  // Readers alternate KnnSearch, RangeSearch and a mixed BatchSearch,
  // so range subtrees handed back to the caller are re-issued across
  // rebalance steps too.
  std::atomic<uint64_t> answers{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      for (size_t i = 0; i < 250; ++i) {
        // Every reader leans on the hot prefix so the rebalancer has
        // something to act on *while* they read.
        size_t key = (t * 997 + i * 13) % 80;
        SpatialQuery knn = SpatialQuery::Knn(corpus[key].coords, 8);
        SpatialQuery range = SpatialQuery::Range(corpus[key].coords, 0.15);
        std::vector<SpatialQuery> asked;
        std::vector<std::vector<Neighbor>> got;
        if (i % 3 == 0) {
          auto r = tree->KnnSearch(knn.coords, knn.k);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          asked = {knn};
          got = {std::move(*r)};
        } else if (i % 3 == 1) {
          auto r = tree->RangeSearch(range.coords, range.radius);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          asked = {range};
          got = {std::move(*r)};
        } else {
          asked = {range, knn};
          auto r = tree->BatchSearch(asked);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          got = std::move(*r);
        }
        ASSERT_EQ(got.size(), asked.size());
        for (size_t j = 0; j < asked.size(); ++j) {
          ExpectSoundAnswer(got[j], asked[j], corpus);
        }
        answers.fetch_add(asked.size(), std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : readers) th.join();
  tree->StopRebalancer();
  // Per reader: 84 k-NN, 83 range and 83 two-query batches.
  EXPECT_EQ(answers.load(), 4u * (84u + 83u + 2u * 83u));
  EXPECT_EQ(tree->size(), corpus.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());

  auto twin = MakeLoadedTree(opts, corpus);
  ExpectQueriesIdentical(*tree, *twin, corpus);
}

TEST(RebalanceTest, ConcurrentInsertsLandExactlyOnce) {
  SemTreeOptions opts = RebalanceOpts();
  opts.rebalance.interval = std::chrono::milliseconds(1);
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  ASSERT_TRUE(tree->StartRebalancer().ok());

  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 150;
  std::atomic<uint64_t> inserted{0};
  std::vector<std::thread> writers;
  std::vector<std::vector<KdPoint>> landed(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      for (size_t i = 0; i < kPerWriter; ++i) {
        // New ids beyond the corpus, coordinates inside the hot
        // region so inserts race the splits happening there.
        KdPoint p;
        p.id = corpus.size() + w * kPerWriter + i;
        p.coords = corpus[(w * 31 + i) % 60].coords;
        p.coords[0] += 1e-4 * static_cast<double>(i + 1);
        Status st = tree->Insert(p.coords, p.id);
        ASSERT_TRUE(st.ok()) << st.ToString();
        landed[w].push_back(std::move(p));
        inserted.fetch_add(1, std::memory_order_relaxed);
      }
      // Keep query traffic flowing so the rebalancer stays active.
      auto r = tree->KnnSearch(corpus[w].coords, 4);
      ASSERT_TRUE(r.ok());
    });
  }
  for (std::thread& th : writers) th.join();
  tree->StopRebalancer();

  EXPECT_EQ(tree->size(), corpus.size() + inserted.load());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  // Every insert is findable exactly where it was put.
  for (const auto& batch : landed) {
    for (size_t i = 0; i < batch.size(); i += 17) {
      auto r = tree->RangeSearch(batch[i].coords, 1e-9);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      bool found = false;
      for (const Neighbor& n : *r) found |= n.id == batch[i].id;
      EXPECT_TRUE(found) << "lost insert id " << batch[i].id;
    }
  }
}

TEST(RebalanceTest, ConcurrentRemovesRacingSplitsLandExactlyOnce) {
  SemTreeOptions opts = RebalanceOpts();
  opts.rebalance.interval = std::chrono::milliseconds(1);
  // A split moves its subtree in one activation of the source, so a
  // remove finds its point either there or behind the new link.
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  ASSERT_TRUE(tree->StartRebalancer().ok());

  // Each writer removes every third point of the hot prefix, with
  // k-NN traffic in between so the prefix stays hot.
  constexpr size_t kWriters = 3;
  constexpr size_t kHot = 600;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      for (size_t id = w; id < kHot; id += kWriters) {
        Status st = tree->Remove(corpus[id].coords, corpus[id].id);
        ASSERT_TRUE(st.ok()) << "id " << id << ": " << st.ToString();
        auto r = tree->KnnSearch(corpus[(id * 7) % kHot].coords, 4);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  for (std::thread& th : writers) th.join();
  tree->StopRebalancer();

  EXPECT_EQ(tree->size(), corpus.size() - kHot);
  EXPECT_TRUE(tree->CheckInvariants().ok());
  std::vector<KdPoint> kept(corpus.begin() + kHot, corpus.end());
  auto twin = MakeLoadedTree(RebalanceOpts(), kept);
  ExpectQueriesIdentical(*tree, *twin, corpus);
}

// A write is visible the moment it returns, even while splits run
// (DESIGN.md §12). Three writers each make 300 writes, write(w, i)
// returning the point written, against a rebalancer ticking every
// millisecond. After each write returns, its writer probes its last 16
// points and counts every one a reader does not see as `stored`.
template <typename Write>
void ExpectWritesVisibleOnReturn(SemTree* tree, bool stored, Write write) {
  constexpr size_t kWriters = 3;
  constexpr size_t kPerWriter = 300;
  constexpr size_t kWindow = 16;
  ASSERT_TRUE(tree->StartRebalancer().ok());
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> probes{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      std::vector<KdPoint> written;
      for (size_t i = 0; i < kPerWriter; ++i) {
        written.push_back(write(w, i));
        size_t from = written.size() > kWindow ? written.size() - kWindow : 0;
        for (size_t j = from; j < written.size(); ++j) {
          auto r = tree->RangeSearch(written[j].coords, 1e-9);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          bool found = false;
          for (const Neighbor& n : *r) found |= n.id == written[j].id;
          if (found != stored) wrong.fetch_add(1, std::memory_order_relaxed);
          probes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : writers) th.join();
  tree->StopRebalancer();
  EXPECT_GE(tree->DebugStats().rebalance.splits, 1u);
  EXPECT_EQ(probes.load(), 14040u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << probes.load() << " probes";
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RebalanceTest, InsertIsVisibleOnReturnWhileSplitsRun) {
  SemTreeOptions opts = RebalanceOpts();
  opts.rebalance.interval = std::chrono::milliseconds(1);
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  ExpectWritesVisibleOnReturn(
      tree.get(), /*stored=*/true, [&](size_t w, size_t i) {
        // New ids inside the hot region, so inserts race the splits
        // happening there.
        KdPoint p;
        p.id = corpus.size() + w * 300 + i;
        p.coords = corpus[(w * 31 + i) % 60].coords;
        p.coords[0] += 1e-4 * static_cast<double>(i + 1);
        Status st = tree->Insert(p.coords, p.id);
        EXPECT_TRUE(st.ok()) << st.ToString();
        return p;
      });
  EXPECT_EQ(tree->size(), corpus.size() + 900);
}

TEST(RebalanceTest, RemoveIsVisibleOnReturnWhileSplitsRun) {
  SemTreeOptions opts = RebalanceOpts();
  opts.rebalance.interval = std::chrono::milliseconds(1);
  auto corpus = SkewedCorpus(2000);
  auto tree = MakeLoadedTree(opts, corpus);
  ExpectWritesVisibleOnReturn(
      tree.get(), /*stored=*/false, [&](size_t w, size_t i) {
        // Every third point of the hot prefix's first 900.
        const KdPoint& p = corpus[w + 3 * i];
        Status st = tree->Remove(p.coords, p.id);
        EXPECT_TRUE(st.ok()) << "id " << p.id << ": " << st.ToString();
        return p;
      });
  EXPECT_EQ(tree->size(), corpus.size() - 900);
}

}  // namespace
}  // namespace semtree
