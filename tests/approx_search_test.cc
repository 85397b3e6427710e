// Copyright 2026 The SemTree Authors
//
// Budget-semantics tests for the approximate-search subsystem
// (DESIGN.md §6):
//  * an exact SearchBudget is byte-identical to the budget-less search
//    on all four sequential backends AND the distributed SemTree;
//  * truncated searches are flagged, deterministic, and respect their
//    caps; epsilon searches never misreport a distance;
//  * budgeted and exact results never share a result-cache slot, and
//    a cache hit replays the original truncation verdict;
//  * the -0.0/0.0 epsilon normalization mirrors the radius one;
//  * the per-index default budget round-trips through the v2 snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/backends.h"
#include "core/query.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "persist/index_snapshot.h"
#include "semtree/semtree.h"

namespace semtree {
namespace {

constexpr size_t kDims = 4;

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

std::unique_ptr<SpatialIndex> BuildIndex(BackendKind kind, size_t n,
                                         uint64_t seed) {
  BackendOptions opts;
  opts.bucket_size = 8;
  auto index = MakeSpatialIndex(kind, kDims, opts);
  auto rows = RandomVectors(n, kDims, seed);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  return index;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------
// Exact budgets are byte-identical to budget-less searches, per
// backend, and match the linear-scan gold standard.

class ApproxBackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ApproxBackendTest, ExactBudgetIsByteIdentical) {
  auto index = BuildIndex(GetParam(), 400, 11);
  auto gold = BuildIndex(BackendKind::kLinearScan, 400, 11);
  auto queries = RandomVectors(32, kDims, 12);
  for (const auto& q : queries) {
    SearchStats plain_stats, exact_stats;
    auto plain = index->KnnSearch(q, 9, &plain_stats);
    auto exact =
        index->KnnSearch(q, 9, SearchBudget::Exact(), &exact_stats);
    EXPECT_EQ(plain, exact);
    EXPECT_EQ(plain, gold->KnnSearch(q, 9));
    EXPECT_FALSE(exact_stats.truncated);
    EXPECT_EQ(plain_stats.points_examined, exact_stats.points_examined);
    EXPECT_EQ(plain_stats.nodes_visited, exact_stats.nodes_visited);

    SearchStats range_stats;
    auto range =
        index->RangeSearch(q, 0.6, SearchBudget::Exact(), &range_stats);
    EXPECT_EQ(range, index->RangeSearch(q, 0.6));
    EXPECT_EQ(range, gold->RangeSearch(q, 0.6));
    EXPECT_FALSE(range_stats.truncated);
  }
}

TEST_P(ApproxBackendTest, TruncatedSearchesAreFlaggedAndDeterministic) {
  auto index = BuildIndex(GetParam(), 400, 21);
  auto queries = RandomVectors(16, kDims, 22);
  SearchBudget budget = SearchBudget::MaxDistances(40);
  for (const auto& q : queries) {
    SearchStats a_stats, b_stats;
    auto a = index->KnnSearch(q, 9, budget, &a_stats);
    auto b = index->KnnSearch(q, 9, budget, &b_stats);
    EXPECT_EQ(a, b);  // Deterministic: identical truncation point.
    EXPECT_TRUE(a_stats.truncated);
    EXPECT_LE(a_stats.points_examined, 40u);
    EXPECT_EQ(a_stats.points_examined, b_stats.points_examined);
    // Budgeted distances are still true distances to stored points
    // (verify through the exact gold result: every reported pair must
    // appear there — recall may drop, precision may not).
    auto exact = index->KnnSearch(q, 400);
    for (const Neighbor& n : a) {
      bool found = false;
      for (const Neighbor& e : exact) {
        if (e.id == n.id && e.distance == n.distance) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "fabricated neighbor " << n.id;
    }
  }
}

TEST_P(ApproxBackendTest, ExhaustedDistanceBudgetStopsTheWalk) {
  auto index = BuildIndex(GetParam(), 400, 35);
  auto q = RandomVectors(1, kDims, 36)[0];
  SearchStats exact_stats, capped_stats;
  (void)index->KnnSearch(q, 9, SearchBudget::Exact(), &exact_stats);
  (void)index->KnnSearch(q, 9, SearchBudget::MaxDistances(5),
                         &capped_stats);
  // A spent distance budget freezes the result set; the walk must stop
  // rather than keep visiting nodes (on the KD-tree, whose routing
  // nodes charge no distances, continuing would traverse MORE nodes
  // than the exact search).
  EXPECT_LE(capped_stats.nodes_visited, exact_stats.nodes_visited);
  EXPECT_TRUE(capped_stats.truncated);
}

TEST_P(ApproxBackendTest, ReusedStatsObjectDoesNotEatTheBudget) {
  auto index = BuildIndex(GetParam(), 400, 37);
  auto queries = RandomVectors(3, kDims, 38)[0];
  SearchBudget budget = SearchBudget::MaxDistances(60);
  // SearchStats is an accumulative contract (benches reuse one object
  // across many searches); the budget must meter each search's own
  // work, not the accumulated counters.
  SearchStats reused;
  auto first = index->KnnSearch(queries, 5, budget, &reused);
  auto second = index->KnnSearch(queries, 5, budget, &reused);
  SearchStats fresh;
  auto control = index->KnnSearch(queries, 5, budget, &fresh);
  EXPECT_EQ(first, control);
  EXPECT_EQ(second, control);
  EXPECT_EQ(reused.points_examined, 2 * fresh.points_examined);
}

TEST_P(ApproxBackendTest, NodeBudgetTruncates) {
  if (GetParam() == BackendKind::kLinearScan) {
    // A scan is one node: no node cap above zero can interrupt it (the
    // distance cap is its budget knob, covered above).
    GTEST_SKIP();
  }
  auto index = BuildIndex(GetParam(), 400, 31);
  auto q = RandomVectors(1, kDims, 32)[0];
  SearchStats stats;
  auto hits = index->KnnSearch(q, 9, SearchBudget::MaxNodes(2), &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.nodes_visited, 2u);
  (void)hits;
}

TEST_P(ApproxBackendTest, EpsilonRangeNeverMisreports) {
  auto index = BuildIndex(GetParam(), 400, 41);
  auto queries = RandomVectors(16, kDims, 42);
  for (const auto& q : queries) {
    auto exact = index->RangeSearch(q, 0.7);
    SearchStats stats;
    auto approx =
        index->RangeSearch(q, 0.7, SearchBudget::Epsilon(1.0), &stats);
    // Approximate range results are a subset of the exact ones.
    EXPECT_LE(approx.size(), exact.size());
    for (const Neighbor& n : approx) {
      bool found = false;
      for (const Neighbor& e : exact) {
        if (e.id == n.id && e.distance == n.distance) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "fabricated range member " << n.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ApproxBackendTest,
    ::testing::Values(BackendKind::kKdTree, BackendKind::kLinearScan,
                      BackendKind::kVpTree, BackendKind::kMTree),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendName(info.param));
    });

// ---------------------------------------------------------------------
// Distributed SemTree: exact budgets reproduce the budget-less
// protocol results; budgeted runs truncate deterministically.

TEST(ApproxDistributedTest, ExactBudgetMatchesOnSemTree) {
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 8;
  opts.max_partitions = 4;
  opts.partition_capacity = 64;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto rows = RandomVectors(300, kDims, 51);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*tree)->Insert(rows[i], PointId(i)).ok());
  }
  ASSERT_GT((*tree)->PartitionCount(), 1u);

  auto queries = RandomVectors(12, kDims, 52);
  for (const auto& q : queries) {
    DistributedSearchStats stats;
    auto plain = (*tree)->KnnSearch(q, 7);
    auto exact = (*tree)->KnnSearch(q, 7, SearchBudget::Exact(), &stats);
    ASSERT_TRUE(plain.ok() && exact.ok());
    EXPECT_EQ(*plain, *exact);
    EXPECT_FALSE(stats.truncated);

    auto range_plain = (*tree)->RangeSearch(q, 0.5);
    auto range_exact =
        (*tree)->RangeSearch(q, 0.5, SearchBudget::Exact(), &stats);
    ASSERT_TRUE(range_plain.ok() && range_exact.ok());
    EXPECT_EQ(*range_plain, *range_exact);
    EXPECT_FALSE(stats.truncated);
  }

  // Batch: exact budgets match, budgeted items are flagged per slot.
  std::vector<SpatialQuery> batch;
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.push_back(i % 2 == 0
                        ? SpatialQuery::Knn(queries[i], 5)
                        : SpatialQuery::Range(queries[i], 0.5));
  }
  std::vector<uint8_t> truncated;
  auto exact_batch = (*tree)->BatchSearch(batch, nullptr, &truncated);
  ASSERT_TRUE(exact_batch.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto want = batch[i].type == QueryType::kKnn
                    ? (*tree)->KnnSearch(batch[i].coords, batch[i].k)
                    : (*tree)->RangeSearch(batch[i].coords,
                                           batch[i].radius);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ((*exact_batch)[i], *want) << "slot " << i;
    EXPECT_EQ(truncated[i], 0u) << "slot " << i;
  }

  // The same batch under a tight distance cap: flagged and repeatable.
  for (SpatialQuery& q : batch) {
    q.budget = SearchBudget::MaxDistances(20);
  }
  DistributedSearchStats bstats;
  std::vector<uint8_t> trunc_a, trunc_b;
  auto run_a = (*tree)->BatchSearch(batch, &bstats, &trunc_a);
  auto run_b = (*tree)->BatchSearch(batch, nullptr, &trunc_b);
  ASSERT_TRUE(run_a.ok() && run_b.ok());
  EXPECT_EQ(*run_a, *run_b);
  EXPECT_EQ(trunc_a, trunc_b);
  EXPECT_TRUE(bstats.truncated);
  bool any = false;
  for (uint8_t t : trunc_a) any = any || t != 0;
  EXPECT_TRUE(any);
}

TEST(ApproxDistributedTest, BudgetedRangeMetersEachPartitionSubtree) {
  // Nine small partitions, so most range queries cross several.
  SemTreeOptions opts;
  opts.dimensions = kDims;
  opts.bucket_size = 4;
  opts.max_partitions = 9;
  opts.partition_capacity = 40;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto rows = RandomVectors(300, kDims, 51);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*tree)->Insert(rows[i], PointId(i)).ok());
  }
  ASSERT_EQ((*tree)->PartitionCount(), 9u);

  // A cap that runs out ends one partition's local walk; the remote
  // subtrees that walk has already reached still run, each with its own
  // budget. The totals are those of the recursive walk that ran every
  // partition subtree inside its own handler.
  struct Capped {
    SearchBudget budget;
    size_t members;
    size_t visited;
  };
  const Capped capped[] = {{SearchBudget::MaxDistances(20), 163, 265},
                           {SearchBudget::MaxNodes(8), 98, 212}};
  auto queries = RandomVectors(40, kDims, 52);
  for (const Capped& c : capped) {
    size_t members = 0;
    size_t visited = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      DistributedSearchStats exact_stats, stats;
      auto exact = (*tree)->RangeSearch(queries[i], 0.5, SearchBudget::Exact(),
                                        &exact_stats);
      auto got = (*tree)->RangeSearch(queries[i], 0.5, c.budget, &stats);
      ASSERT_TRUE(exact.ok() && got.ok());
      members += got->size();
      visited += stats.partitions_visited;
      // Budgets only drop members.
      for (const Neighbor& n : *got) {
        EXPECT_NE(std::find(exact->begin(), exact->end(), n), exact->end())
            << "query " << i << " id " << n.id;
      }
      // A distance cap never stops a routing node from expanding, so
      // every partition subtree the radius admits is still visited.
      if (c.budget.max_nodes_visited == 0) {
        EXPECT_EQ(stats.partitions_visited, exact_stats.partitions_visited)
            << "query " << i;
      }
    }
    EXPECT_EQ(members, c.members);
    EXPECT_EQ(visited, c.visited);
  }
}

// ---------------------------------------------------------------------
// Cache-key semantics.

TEST(ApproxCacheTest, BudgetedAndExactKeysNeverCollide) {
  std::vector<double> coords = {0.25, 0.5, 0.75};
  SpatialQuery exact_q = SpatialQuery::Knn(coords, 5);
  SpatialQuery capped = SpatialQuery::Knn(coords, 5,
                                          SearchBudget::MaxDistances(10));
  SpatialQuery noded =
      SpatialQuery::Knn(coords, 5, SearchBudget::MaxNodes(3));
  SpatialQuery eps =
      SpatialQuery::Knn(coords, 5, SearchBudget::Epsilon(0.5));

  CacheKey exact_key = CacheKey::Make(exact_q, /*epoch=*/7);
  EXPECT_FALSE(exact_key == CacheKey::Make(capped, 7));
  EXPECT_FALSE(exact_key == CacheKey::Make(noded, 7));
  EXPECT_FALSE(exact_key == CacheKey::Make(eps, 7));

  // A truncated result stored under a budgeted key can never satisfy
  // an exact lookup.
  ShardedResultCache cache(2, 16);
  cache.Put(CacheKey::Make(capped, 7), {Neighbor{1, 0.5}},
            /*truncated=*/true);
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(exact_key, &out));
  bool truncated = false;
  EXPECT_TRUE(cache.Lookup(CacheKey::Make(capped, 7), &out, &truncated));
  EXPECT_TRUE(truncated);  // The verdict rides along with the value.
}

TEST(ApproxCacheTest, NegativeZeroEpsilonHashesLikeZero) {
  std::vector<double> coords = {1.0, 2.0};
  SpatialQuery plus = SpatialQuery::Knn(coords, 3, SearchBudget::Epsilon(0.0));
  SpatialQuery minus =
      SpatialQuery::Knn(coords, 3, SearchBudget::Epsilon(-0.0));
  CacheKey kp = CacheKey::Make(plus, 1);
  CacheKey km = CacheKey::Make(minus, 1);
  EXPECT_TRUE(kp == km);

  ShardedResultCache cache(4, 16);
  cache.Put(kp, {Neighbor{3, 0.125}});
  std::vector<Neighbor> out;
  EXPECT_TRUE(cache.Lookup(km, &out));  // Same slot, not a duplicate.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 3u);
}

// ---------------------------------------------------------------------
// Engine integration: budgets thread end-to-end, truncation flags
// survive cache replay, bad epsilons are rejected up front.

TEST(ApproxEngineTest, BudgetedOutcomesFlaggedAndReplayedFromCache) {
  auto index = BuildIndex(BackendKind::kKdTree, 400, 61);
  QueryEngine engine(index.get());
  auto q = RandomVectors(1, kDims, 62)[0];

  std::vector<SpatialQuery> batch = {
      SpatialQuery::Knn(q, 5),
      SpatialQuery::Knn(q, 5, SearchBudget::MaxDistances(12)),
  };
  auto first = engine.Run(batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->outcomes[0].truncated);
  EXPECT_TRUE(first->outcomes[1].truncated);
  EXPECT_EQ(first->stats.truncated_queries, 1u);
  EXPECT_EQ(first->stats.cache_hits, 0u);

  // Both entries were cached under distinct keys; the repeat hits both
  // and replays the truncation verdicts.
  auto repeat = engine.Run(batch);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->stats.cache_hits, 2u);
  EXPECT_TRUE(repeat->outcomes[0].from_cache);
  EXPECT_TRUE(repeat->outcomes[1].from_cache);
  EXPECT_FALSE(repeat->outcomes[0].truncated);
  EXPECT_TRUE(repeat->outcomes[1].truncated);
  EXPECT_EQ(repeat->outcomes[0].neighbors, first->outcomes[0].neighbors);
  EXPECT_EQ(repeat->outcomes[1].neighbors, first->outcomes[1].neighbors);
}

TEST(ApproxEngineTest, UnspecifiedBudgetsInheritTheIndexDefault) {
  auto index = BuildIndex(BackendKind::kKdTree, 400, 65);
  index->set_default_budget(SearchBudget::MaxDistances(15));
  QueryEngine engine(index.get());
  auto q = RandomVectors(1, kDims, 66)[0];

  // An unspecified (exact) budget inherits the default: truncated
  // under the 15-distance cap. An explicit non-exact budget wins over
  // the default: a vanishing epsilon never prunes anything here, so
  // that outcome is the full exact result, proving the cap was
  // bypassed.
  std::vector<SpatialQuery> batch = {
      SpatialQuery::Knn(q, 5),
      SpatialQuery::Knn(q, 5, SearchBudget::Epsilon(1e-12)),
  };
  auto run = engine.Run(batch);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->outcomes[0].truncated);
  EXPECT_FALSE(run->outcomes[1].truncated);
  EXPECT_EQ(run->outcomes[1].neighbors,
            index->KnnSearch(q, 5, SearchBudget::Exact()));

  // Retuning the default re-keys the cache: the same query under the
  // new default is a miss computed fresh, not a stale truncated replay.
  index->set_default_budget(SearchBudget::Exact());
  auto retuned = engine.Run({SpatialQuery::Knn(q, 5)});
  ASSERT_TRUE(retuned.ok());
  EXPECT_FALSE(retuned->outcomes[0].from_cache);
  EXPECT_FALSE(retuned->outcomes[0].truncated);
  EXPECT_EQ(retuned->outcomes[0].neighbors, index->KnnSearch(q, 5));
}

TEST(ApproxEngineTest, RejectsNegativeOrNanEpsilon) {
  auto index = BuildIndex(BackendKind::kKdTree, 50, 71);
  QueryEngine engine(index.get());
  auto q = RandomVectors(1, kDims, 72)[0];
  std::vector<SpatialQuery> bad = {
      SpatialQuery::Knn(q, 3, SearchBudget::Epsilon(-0.5))};
  EXPECT_TRUE(engine.Run(bad).status().IsInvalidArgument());
  bad[0].budget.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(engine.Run(bad).status().IsInvalidArgument());
}

TEST(ApproxEngineTest, DistributedEngineExactBudgetMatches) {
  SemTreeOptions topts;
  topts.dimensions = kDims;
  topts.bucket_size = 8;
  topts.max_partitions = 3;
  topts.partition_capacity = 64;
  auto tree = SemTree::Create(topts);
  ASSERT_TRUE(tree.ok());
  auto rows = RandomVectors(250, kDims, 81);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*tree)->Insert(rows[i], PointId(i)).ok());
  }
  QueryEngine engine(tree->get());
  auto queries = RandomVectors(10, kDims, 82);
  std::vector<SpatialQuery> exact_batch, budget_batch;
  for (const auto& q : queries) {
    exact_batch.push_back(SpatialQuery::Knn(q, 5));
    budget_batch.push_back(
        SpatialQuery::Knn(q, 5, SearchBudget::Exact()));
  }
  auto a = engine.Run(exact_batch);
  auto b = engine.Run(budget_batch);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a->outcomes[i].neighbors, b->outcomes[i].neighbors);
    EXPECT_FALSE(b->outcomes[i].truncated);
  }
  EXPECT_EQ(b->stats.truncated_queries, 0u);
}

// ---------------------------------------------------------------------
// Persistence: the per-index default budget survives a snapshot.

TEST(ApproxPersistTest, DefaultBudgetRoundTrips) {
  auto index = BuildIndex(BackendKind::kKdTree, 200, 91);
  SearchBudget tuned = SearchBudget::MaxDistances(25);
  tuned.epsilon = 0.5;
  index->set_default_budget(tuned);

  std::string path = TempPath("approx_budget.snap");
  ASSERT_TRUE(persist::SaveSpatialIndex(*index, path).ok());
  auto loaded = persist::LoadSpatialIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->default_budget() == tuned);

  // The budget-less overload on the loaded index serves under the
  // restored default: tight cap => truncated.
  auto q = RandomVectors(1, kDims, 92)[0];
  SearchStats stats;
  (void)(*loaded)->KnnSearch(q, 5, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(stats.points_examined, 25u);
  std::remove(path.c_str());
}

TEST(ApproxPersistTest, ExactIndexSnapshotStaysExact) {
  auto index = BuildIndex(BackendKind::kVpTree, 150, 93);
  std::string path = TempPath("approx_exact.snap");
  ASSERT_TRUE(persist::SaveSpatialIndex(*index, path).ok());
  auto loaded = persist::LoadSpatialIndex(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE((*loaded)->default_budget().exact());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace semtree
