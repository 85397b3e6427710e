// Copyright 2026 The SemTree Authors
//
// Tests for the QueryEngine subsystem: batched/concurrent execution
// must be byte-identical to sequential single-query execution across
// every SpatialIndex backend and the distributed SemTree, the sharded
// result cache must hit on repeats and invalidate on mutation (epoch
// bump), and a distributed batch must answer (and cost) each query
// exactly as its single-query call would, under every budget.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/backends.h"
#include "core/query.h"
#include "core/versioned_index.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "semtree/semtree.h"

namespace semtree {
namespace {

// Allocations made by the calling thread, counted by the replacement
// operator new below.
thread_local size_t t_allocations = 0;

}  // namespace
}  // namespace semtree

// GCC takes the free() below for a mismatch with "operator new", not
// seeing that the replacement allocates with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++semtree::t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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

// A mixed batch: alternating k-NN and range queries over perturbed
// corpus points.
std::vector<SpatialQuery> MixedBatch(
    const std::vector<std::vector<double>>& queries) {
  std::vector<SpatialQuery> batch;
  batch.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i % 2 == 0) {
      batch.push_back(SpatialQuery::Knn(queries[i], 1 + i % 7));
    } else {
      batch.push_back(SpatialQuery::Range(queries[i], 0.3 + 0.1 * (i % 5)));
    }
  }
  return batch;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance) << context;
  }
}

// ---------------------------------------------------------------------
// Batched == sequential across every SpatialIndex backend.

class EngineBackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(EngineBackendTest, BatchMatchesSequential) {
  const size_t kDims = 5;
  auto rows = RandomVectors(500, kDims, 21);

  BackendOptions bopts;
  bopts.bucket_size = 16;
  auto index = MakeSpatialIndex(GetParam(), kDims, bopts);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }

  QueryEngineOptions opts;
  opts.threads = 4;
  opts.min_queries_per_task = 4;
  QueryEngine engine(index.get(), opts);

  auto batch = MixedBatch(RandomVectors(48, kDims, 22));
  auto result = engine.Run(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->outcomes.size(), batch.size());
  EXPECT_EQ(result->stats.queries, batch.size());
  EXPECT_EQ(result->stats.knn_queries + result->stats.range_queries,
            batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<Neighbor> want =
        batch[i].type == QueryType::kKnn
            ? index->KnnSearch(batch[i].coords, batch[i].k)
            : index->RangeSearch(batch[i].coords, batch[i].radius);
    ExpectSameNeighbors(result->outcomes[i].neighbors, want,
                        std::string(index->name()) + " query " +
                            std::to_string(i));
  }

  // Second run of the same batch: served from cache, still identical.
  auto again = engine.Run(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(again->outcomes[i].from_cache);
    ExpectSameNeighbors(again->outcomes[i].neighbors,
                        result->outcomes[i].neighbors, "cached");
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineBackendTest,
                         ::testing::Values(BackendKind::kKdTree,
                                           BackendKind::kVpTree,
                                           BackendKind::kMTree,
                                           BackendKind::kLinearScan),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

// ---------------------------------------------------------------------
// Epoch hook

TEST(EpochTest, MutationsBumpTheEpoch) {
  for (BackendKind kind :
       {BackendKind::kKdTree, BackendKind::kLinearScan,
        BackendKind::kVpTree, BackendKind::kMTree}) {
    auto index = MakeSpatialIndex(kind, 2);
    EXPECT_EQ(index->epoch(), 0u) << BackendName(kind);
    ASSERT_TRUE(index->Insert({0.1, 0.2}, 1).ok());
    EXPECT_EQ(index->epoch(), 1u) << BackendName(kind);
    // Failed mutations leave the epoch alone.
    EXPECT_FALSE(index->Insert({0.1}, 2).ok());
    EXPECT_EQ(index->epoch(), 1u) << BackendName(kind);
    Status removed = index->Remove({0.1, 0.2}, 1);
    if (removed.ok()) {
      EXPECT_EQ(index->epoch(), 2u) << BackendName(kind);
    } else {
      EXPECT_TRUE(removed.IsNotSupported());
      EXPECT_EQ(index->epoch(), 1u) << BackendName(kind);
    }
  }
}

// ---------------------------------------------------------------------
// Cache invalidation: a mutation after a cached query must surface
// fresh results, not the stale cached ones.

TEST(EngineCacheTest, InsertInvalidatesCachedResults) {
  const size_t kDims = 3;
  auto rows = RandomVectors(200, kDims, 31);
  auto index = MakeSpatialIndex(BackendKind::kKdTree, kDims);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  QueryEngine engine(index.get());

  std::vector<double> q(kDims, 0.0);
  std::vector<SpatialQuery> batch = {SpatialQuery::Knn(q, 3)};

  auto before = engine.Run(batch);
  ASSERT_TRUE(before.ok());
  uint64_t epoch_before = engine.epoch();

  // Cached now: a repeat is a hit.
  auto repeat = engine.Run(batch);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->stats.cache_hits, 1u);

  // Insert a point at the query location — the new nearest neighbour.
  ASSERT_TRUE(engine.Insert(q, 9999).ok());
  EXPECT_GT(engine.epoch(), epoch_before);

  auto after = engine.Run(batch);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->outcomes[0].from_cache);  // Epoch changed: miss.
  ASSERT_FALSE(after->outcomes[0].neighbors.empty());
  EXPECT_EQ(after->outcomes[0].neighbors[0].id, 9999u);
  EXPECT_DOUBLE_EQ(after->outcomes[0].neighbors[0].distance, 0.0);

  // Remove it again: another epoch bump, results revert to the
  // original set (computed fresh, not replayed from the stale entry).
  ASSERT_TRUE(engine.Remove(q, 9999).ok());
  auto reverted = engine.Run(batch);
  ASSERT_TRUE(reverted.ok());
  EXPECT_FALSE(reverted->outcomes[0].from_cache);
  ExpectSameNeighbors(reverted->outcomes[0].neighbors,
                      before->outcomes[0].neighbors, "post-remove");
}

TEST(EngineCacheTest, RangeResultsInvalidateToo) {
  const size_t kDims = 2;
  auto index = MakeSpatialIndex(BackendKind::kLinearScan, kDims);
  ASSERT_TRUE(index->Insert({1.0, 0.0}, 1).ok());
  QueryEngine engine(index.get());

  std::vector<SpatialQuery> batch = {
      SpatialQuery::Range({0.0, 0.0}, 0.5)};
  auto empty = engine.Run(batch);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->outcomes[0].neighbors.empty());

  ASSERT_TRUE(engine.Insert({0.1, 0.0}, 2).ok());
  auto hit = engine.Run(batch);
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->outcomes[0].neighbors.size(), 1u);
  EXPECT_EQ(hit->outcomes[0].neighbors[0].id, 2u);
}

TEST(EngineCacheTest, DisabledCacheNeverHits) {
  auto index = MakeSpatialIndex(BackendKind::kLinearScan, 2);
  ASSERT_TRUE(index->Insert({0.5, 0.5}, 1).ok());
  QueryEngineOptions opts;
  opts.cache_capacity = 0;
  QueryEngine engine(index.get(), opts);
  EXPECT_FALSE(engine.cache_enabled());
  std::vector<SpatialQuery> batch = {SpatialQuery::Knn({0.0, 0.0}, 1)};
  for (int i = 0; i < 3; ++i) {
    auto r = engine.Run(batch);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.cache_hits, 0u);
  }
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ShardedResultCache cache(/*shards=*/1, /*total_capacity=*/2);
  auto key = [](double x) {
    return CacheKey::Make(SpatialQuery::Knn({x}, 1), /*epoch=*/0);
  };
  cache.Put(key(1.0), {Neighbor{1, 0.0}});
  cache.Put(key(2.0), {Neighbor{2, 0.0}});
  std::vector<Neighbor> out;
  ASSERT_TRUE(cache.Lookup(key(1.0), &out));  // Refresh 1.0.
  cache.Put(key(3.0), {Neighbor{3, 0.0}});    // Evicts 2.0.
  EXPECT_TRUE(cache.Lookup(key(1.0), &out));
  EXPECT_FALSE(cache.Lookup(key(2.0), &out));
  EXPECT_TRUE(cache.Lookup(key(3.0), &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------
// Validation

TEST(EngineTest, RejectsMalformedQueriesUpFront) {
  auto index = MakeSpatialIndex(BackendKind::kKdTree, 3);
  QueryEngine engine(index.get());
  EXPECT_TRUE(engine
                  .Run({SpatialQuery::Knn({1.0, 2.0}, 1)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine
                  .Run({SpatialQuery::Range({1.0, 2.0, 3.0}, -1.0)})
                  .status()
                  .IsInvalidArgument());
  auto empty = engine.Run({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->outcomes.empty());
}

// A k beyond anything memory can hold asks for every stored point. No
// walker may size a buffer by k: each must return all points, as the
// linear scan does.
TEST(EngineTest, HugeKReturnsEveryStoredPoint) {
  const size_t kDims = 3;
  auto rows = RandomVectors(300, kDims, 31);
  std::vector<KdPoint> corpus(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) corpus[i] = {rows[i], PointId(i)};
  auto gold = MakeSpatialIndex(BackendKind::kLinearScan, kDims);
  ASSERT_TRUE(gold->BulkLoad(corpus).ok());

  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (BackendKind kind :
       {BackendKind::kKdTree, BackendKind::kVpTree, BackendKind::kMTree}) {
    indexes.push_back(MakeSpatialIndex(kind, kDims));
  }
  VersionedIndex::Options vopts;
  vopts.merge_threshold = 64;
  indexes.push_back(std::make_unique<VersionedIndex>(kDims, vopts));
  const std::vector<double> query = {0.1, -0.2, 0.3};
  const SpatialQuery huge = SpatialQuery::Knn(query, size_t{1} << 61);
  for (auto& index : indexes) {
    ASSERT_TRUE(index->BulkLoad(corpus).ok());
    QueryEngine engine(index.get());
    auto got = engine.RunOne(huge);
    ASSERT_TRUE(got.ok()) << index->name();
    ExpectSameNeighbors(got->neighbors,
                        gold->KnnSearch(query, corpus.size()),
                        std::string(index->name()));
  }
  // The RCU wrapper again with a delta: a tombstoned base point and
  // un-merged adds go through its delta merge.
  VersionedIndex& rcu = static_cast<VersionedIndex&>(*indexes.back());
  ASSERT_TRUE(rcu.Remove(rows[0], 0).ok());
  ASSERT_TRUE(gold->Remove(rows[0], 0).ok());
  for (size_t i = 0; i < 10; ++i) {
    std::vector<double> p = {0.01 * double(i), 0.5, -0.5};
    ASSERT_TRUE(rcu.Insert(p, PointId(1000 + i)).ok());
    ASSERT_TRUE(gold->Insert(p, PointId(1000 + i)).ok());
  }
  ASSERT_GT(rcu.delta_size(), 0u);
  QueryEngine engine(&rcu);
  auto got = engine.RunOne(huge);
  ASSERT_TRUE(got.ok());
  ExpectSameNeighbors(got->neighbors, gold->KnnSearch(query, gold->size()),
                      "versioned with delta");
}

TEST(EngineTest, RejectsNonFiniteQueriesUpFront) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto index = MakeSpatialIndex(BackendKind::kKdTree, 2);
  ASSERT_TRUE(index->Insert({0.0, 0.0}, 1).ok());
  QueryEngine engine(index.get());
  EXPECT_TRUE(engine.Run({SpatialQuery::Knn({nan, 0.0}, 1)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.Run({SpatialQuery::Range({0.0, inf}, 1.0)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.Run({SpatialQuery::Range({0.0, 0.0}, nan)})
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineCacheTest, MetricIsPartOfTheCacheKey) {
  // Same query, same epoch, different metric: distinct cache slots —
  // a result computed under one geometry must never satisfy a query
  // under another.
  SpatialQuery q = SpatialQuery::Knn({1.0, 2.0}, 3);
  CacheKey l2 = CacheKey::Make(q, /*epoch=*/5, Metric::kL2);
  CacheKey l1 = CacheKey::Make(q, /*epoch=*/5, Metric::kL1);
  EXPECT_FALSE(l2 == l1);
  EXPECT_TRUE(l2 == CacheKey::Make(q, 5, Metric::kL2));

  ShardedResultCache cache(2, 16);
  cache.Put(l2, {Neighbor{1, 0.5}});
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(l1, &out));
  EXPECT_TRUE(cache.Lookup(l2, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
}

// ---------------------------------------------------------------------
// Distributed target: SemTree::BatchSearch.

std::unique_ptr<SemTree> MakeLoadedTree(
    const std::vector<std::vector<double>>& rows, size_t partitions) {
  SemTreeOptions opts;
  opts.dimensions = rows[0].size();
  opts.bucket_size = 8;
  opts.max_partitions = partitions;
  opts.partition_capacity = 64;
  auto tree = SemTree::Create(opts);
  EXPECT_TRUE(tree.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE((*tree)->Insert(rows[i], PointId(i)).ok());
  }
  return std::move(*tree);
}

TEST(DistributedBatchTest, MatchesSequentialAcrossPartitions) {
  const size_t kDims = 4;
  auto rows = RandomVectors(600, kDims, 41);
  auto tree = MakeLoadedTree(rows, /*partitions=*/5);
  ASSERT_GT(tree->PartitionCount(), 1u);
  ASSERT_TRUE(tree->CheckInvariants().ok());

  auto batch = MixedBatch(RandomVectors(40, kDims, 42));
  DistributedSearchStats stats;
  auto results = tree->BatchSearch(batch, &stats);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), batch.size());
  EXPECT_GT(stats.partitions_visited, 0u);

  for (size_t i = 0; i < batch.size(); ++i) {
    auto want = batch[i].type == QueryType::kKnn
                    ? tree->KnnSearch(batch[i].coords, batch[i].k)
                    : tree->RangeSearch(batch[i].coords, batch[i].radius);
    ASSERT_TRUE(want.ok());
    ExpectSameNeighbors((*results)[i], *want,
                        "distributed query " + std::to_string(i));
  }
}

TEST(DistributedBatchTest, RejectsNonFiniteQueries) {
  // The raw SemTree surface must reject what the backends reject: a
  // NaN query would poison the partition walks' heap ordering.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto rows = RandomVectors(64, 3, 77);
  auto tree = MakeLoadedTree(rows, 2);
  EXPECT_TRUE(
      tree->KnnSearch({nan, 0.0, 0.0}, 3).status().IsInvalidArgument());
  EXPECT_TRUE(tree->RangeSearch({0.0, 0.0, 0.0}, nan)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(tree->BatchSearch({SpatialQuery::Knn({nan, 0.0, 0.0}, 2)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      tree->BatchSearch({SpatialQuery::Range({0.0, 0.0, 0.0}, nan)})
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(tree->KnnSearch({0.1, 0.1, 0.1}, 3).ok());
}

TEST(DistributedBatchTest, KZeroReturnsEmptyEverywhere) {
  // k == 0 must not dereference the empty result heap in the batch
  // traversal (or the single-query handler it shares its step with).
  auto rows = RandomVectors(200, 3, 91);
  auto tree = MakeLoadedTree(rows, /*partitions=*/3);
  ASSERT_GT(tree->PartitionCount(), 1u);
  auto res = tree->BatchSearch({SpatialQuery::Knn(rows[0], 0)});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE((*res)[0].empty());
  auto single = tree->KnnSearch(rows[0], 0);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->empty());
}

TEST(DistributedBatchTest, AnswersEachQueryAsItsSingleCallUnderEveryBudget) {
  // 4 partitions, 300 points in 4 dimensions, bucket 8: small enough
  // that the capped budgets below cut most queries short.
  const size_t kDims = 4;
  auto rows = RandomVectors(300, kDims, 51);
  auto tree = MakeLoadedTree(rows, /*partitions=*/4);
  ASSERT_GT(tree->PartitionCount(), 1u);

  const SearchBudget budgets[] = {
      SearchBudget::Exact(), SearchBudget::MaxDistances(20),
      SearchBudget::MaxNodes(4), SearchBudget::Epsilon(1.0)};
  for (size_t b = 0; b < std::size(budgets); ++b) {
    const SearchBudget& budget = budgets[b];
    auto batch = MixedBatch(RandomVectors(12, kDims, 52));
    for (SpatialQuery& q : batch) q.budget = budget;
    DistributedSearchStats bstats;
    std::vector<uint8_t> truncated;
    auto results = tree->BatchSearch(batch, &bstats, &truncated);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(truncated.size(), batch.size());

    uint64_t messages = 0;
    size_t visited = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const SpatialQuery& q = batch[i];
      DistributedSearchStats stats;
      auto want = q.type == QueryType::kKnn
                      ? tree->KnnSearch(q.coords, q.k, budget, &stats)
                      : tree->RangeSearch(q.coords, q.radius, budget, &stats);
      ASSERT_TRUE(want.ok());
      std::string context =
          "budget " + std::to_string(b) + " slot " + std::to_string(i);
      ExpectSameNeighbors((*results)[i], *want, context);
      EXPECT_EQ(truncated[i] != 0, stats.truncated) << context;
      messages += stats.messages;
      visited += stats.partitions_visited;
    }
    // Nothing is coalesced: the batch costs exactly its queries sent
    // one by one.
    EXPECT_EQ(bstats.messages, messages);
    EXPECT_EQ(bstats.partitions_visited, visited);
    EXPECT_EQ(bstats.truncated, !budget.exact());
  }
}

TEST(DistributedBatchTest, EngineOverSemTreeMatchesAndCaches) {
  const size_t kDims = 4;
  auto rows = RandomVectors(400, kDims, 61);
  auto tree = MakeLoadedTree(rows, /*partitions=*/4);

  QueryEngineOptions opts;
  opts.threads = 3;
  opts.min_queries_per_task = 4;
  QueryEngine engine(tree.get(), opts);

  auto batch = MixedBatch(RandomVectors(30, kDims, 62));
  auto result = engine.Run(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 0; i < batch.size(); ++i) {
    auto want = batch[i].type == QueryType::kKnn
                    ? tree->KnnSearch(batch[i].coords, batch[i].k)
                    : tree->RangeSearch(batch[i].coords, batch[i].radius);
    ASSERT_TRUE(want.ok());
    ExpectSameNeighbors(result->outcomes[i].neighbors, *want,
                        "engine/semtree query " + std::to_string(i));
  }

  // Repeat: all hits. Mutate through the engine: epoch advances and the
  // repeat is computed fresh.
  auto again = engine.Run(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, batch.size());
  ASSERT_TRUE(engine.Insert(batch[0].coords, 7777).ok());
  auto fresh = engine.Run(batch);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->stats.cache_hits, 0u);
  ASSERT_FALSE(fresh->outcomes[0].neighbors.empty());
  EXPECT_EQ(fresh->outcomes[0].neighbors[0].id, 7777u);
}

// Batches that do not divide evenly over the workers. With 4 threads
// and one query per task, 5 queries round up to chunks of 2, which fill
// only 3 spans; no span may start past the end of the batch. Each
// outcome must be the one RunOne gives on a second engine.
void ExpectUnevenBatchesMatchRunOne(QueryEngine* engine,
                                    QueryEngine* reference, size_t dims,
                                    const std::string& target) {
  for (size_t n = 1; n <= 9; ++n) {
    auto batch = MixedBatch(RandomVectors(n, dims, 70 + n));
    auto result = engine->Run(batch);
    ASSERT_TRUE(result.ok()) << target << " " << result.status().ToString();
    ASSERT_EQ(result->outcomes.size(), n);
    EXPECT_EQ(result->stats.queries, n);
    for (size_t i = 0; i < n; ++i) {
      auto want = reference->RunOne(batch[i]);
      ASSERT_TRUE(want.ok());
      ExpectSameNeighbors(result->outcomes[i].neighbors, want->neighbors,
                          target + " batch " + std::to_string(n) +
                              " query " + std::to_string(i));
    }
  }
}

TEST(EngineTest, UnevenBatchesLeaveNoEmptySpan) {
  const size_t kDims = 4;
  auto rows = RandomVectors(300, kDims, 71);
  QueryEngineOptions opts;
  opts.threads = 4;
  opts.min_queries_per_task = 1;

  auto index = MakeSpatialIndex(BackendKind::kKdTree, kDims);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  QueryEngine sequential(index.get(), opts);
  QueryEngine sequential_reference(index.get());
  ExpectUnevenBatchesMatchRunOne(&sequential, &sequential_reference, kDims,
                                 "sequential");

  auto tree = MakeLoadedTree(rows, /*partitions=*/4);
  QueryEngine distributed(tree.get(), opts);
  QueryEngine distributed_reference(tree.get());
  ExpectUnevenBatchesMatchRunOne(&distributed, &distributed_reference, kDims,
                                 "distributed");
}

// ---------------------------------------------------------------------
// RunOne's cost on a cache hit: the key's coordinates and the answer.

// Allocations of one RunOne that hits the cache, after two runs of the
// same query have filled and warmed it.
size_t AllocationsOfAWarmHit(QueryEngine* engine, const SpatialQuery& q) {
  for (int warm = 0; warm < 2; ++warm) {
    auto r = engine->RunOne(q);
    EXPECT_TRUE(r.ok());
  }
  const size_t before = t_allocations;
  Result<QueryOutcome> hit = engine->RunOne(q);
  const size_t allocations = t_allocations - before;
  EXPECT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_FALSE(hit->neighbors.empty());
  return allocations;
}

TEST(EngineAllocationTest, AWarmHitAllocatesOnlyItsKeyAndAnswer) {
  const size_t kDims = 4;
  auto rows = RandomVectors(300, kDims, 81);
  const SpatialQuery q = SpatialQuery::Knn(RandomVectors(1, kDims, 82)[0], 5);

  auto index = MakeSpatialIndex(BackendKind::kKdTree, kDims);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  QueryEngine sequential(index.get());
  EXPECT_EQ(AllocationsOfAWarmHit(&sequential, q), 2u);

  auto tree = MakeLoadedTree(rows, /*partitions=*/4);
  QueryEngine distributed(tree.get());
  EXPECT_EQ(AllocationsOfAWarmHit(&distributed, q), 2u);
}

// ---------------------------------------------------------------------
// Concurrency: many client threads sharing one engine, with mutations
// interleaved, must produce exactly-sequential results afterwards and
// internally consistent ones throughout.

TEST(EngineConcurrencyTest, ParallelClientsWithInterleavedMutations) {
  const size_t kDims = 4;
  const size_t kClients = 6;
  auto rows = RandomVectors(400, kDims, 71);
  auto index = MakeSpatialIndex(BackendKind::kKdTree, kDims);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index->Insert(rows[i], PointId(i)).ok());
  }
  QueryEngineOptions opts;
  opts.threads = 4;
  opts.min_queries_per_task = 2;
  QueryEngine engine(index.get(), opts);

  auto queries = RandomVectors(64, kDims, 72);
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Rng rng(80 + c);
      for (int round = 0; round < 10; ++round) {
        std::vector<SpatialQuery> batch;
        for (int j = 0; j < 8; ++j) {
          const auto& q = queries[rng.Uniform(queries.size())];
          if (j % 2 == 0) {
            batch.push_back(SpatialQuery::Knn(q, 4));
          } else {
            batch.push_back(SpatialQuery::Range(q, 0.6));
          }
        }
        auto result = engine.Run(batch);
        if (!result.ok()) {
          failed.store(true);
          return;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          const auto& hits = result->outcomes[i].neighbors;
          if (batch[i].type == QueryType::kKnn && hits.size() > 4) {
            failed.store(true);
          }
          for (size_t r = 1; r < hits.size(); ++r) {
            if (!NeighborDistanceThenId(hits[r - 1], hits[r])) {
              failed.store(true);  // Ordering violated.
            }
          }
        }
        // One client also mutates, exercising epoch invalidation under
        // concurrent readers.
        if (c == 0) {
          std::vector<double> p = queries[rng.Uniform(queries.size())];
          (void)engine.Insert(p, PointId(100000 + round));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_FALSE(failed.load());

  // Quiescent again: batched results must equal sequential ones.
  auto batch = MixedBatch(queries);
  auto result = engine.Run(batch);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    std::vector<Neighbor> want =
        batch[i].type == QueryType::kKnn
            ? index->KnnSearch(batch[i].coords, batch[i].k)
            : index->RangeSearch(batch[i].coords, batch[i].radius);
    ExpectSameNeighbors(result->outcomes[i].neighbors, want,
                        "post-churn query " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------
// Engine over the RCU target (DESIGN.md §11): the cache is keyed at
// the version each search actually pinned, so results can never leak
// across versions, and per-version invalidation evicts exactly the
// drained versions' entries.

TEST(EngineRcuTest, CachedResultsNeverLeakAcrossVersions) {
  VersionedIndex index(2);
  ASSERT_TRUE(index.Insert({5.0, 0.0}, 1).ok());
  ASSERT_TRUE(index.Insert({6.0, 0.0}, 2).ok());

  QueryEngineOptions options;
  options.threads = 2;
  QueryEngine engine(&index, options);
  ASSERT_TRUE(engine.cache_enabled());

  // Version V: nearest to the origin is id 1, and the repeat is a
  // cache hit keyed at V.
  const auto q = SpatialQuery::Knn({0.0, 0.0}, 1);
  auto first = engine.RunOne(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  ASSERT_EQ(first->neighbors.size(), 1u);
  EXPECT_EQ(first->neighbors[0].id, 1u);
  auto repeat = engine.RunOne(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_cache);
  EXPECT_EQ(repeat->neighbors[0].id, 1u);

  // Version V+1 puts a closer point in. The V-keyed entry must not be
  // served: the same query misses and sees the new point.
  ASSERT_TRUE(engine.Insert({1.0, 0.0}, 3).ok());
  auto after = engine.RunOne(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
  ASSERT_EQ(after->neighbors.size(), 1u);
  EXPECT_EQ(after->neighbors[0].id, 3u);

  // And V+1's own entry is warm on repeat.
  auto warm = engine.RunOne(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->neighbors[0].id, 3u);
}

TEST(EngineRcuTest, MutationsEvictDrainedVersionEntries) {
  VersionedIndex index(2);
  ASSERT_TRUE(index.Insert({1.0, 1.0}, 10).ok());

  QueryEngineOptions options;
  options.threads = 2;
  QueryEngine engine(&index, options);

  // Cache one result at the current version.
  const auto q = SpatialQuery::Knn({0.0, 0.0}, 1);
  ASSERT_TRUE(engine.RunOne(q).ok());
  EXPECT_EQ(engine.cache_stats().insertions, 1u);

  // With no reader pinned, a mutation drains the old version
  // immediately; the engine sweeps its entries out of the cache.
  ASSERT_TRUE(engine.Insert({2.0, 2.0}, 11).ok());
  EXPECT_EQ(index.oldest_live_epoch(), index.epoch());
  const auto stats = engine.cache_stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
}

// EvictEpochsBelow must drop exactly the entries below the watermark:
// a reader still pinned to version V keeps V's entries, and versions
// newer than the watermark stay warm untouched.
TEST(ResultCacheTest, EvictEpochsBelowSparesNewerVersions) {
  ShardedResultCache cache(4, 64);
  const auto knn = SpatialQuery::Knn({1.0, 2.0}, 3);
  const auto other = SpatialQuery::Knn({9.0, 9.0}, 3);
  const std::vector<Neighbor> value = {{7, 0.5}};

  // The same query cached at three consecutive versions, plus an
  // unrelated query at the oldest.
  cache.Put(CacheKey::Make(knn, 1), value);
  cache.Put(CacheKey::Make(knn, 2), value);
  cache.Put(CacheKey::Make(knn, 3), value);
  cache.Put(CacheKey::Make(other, 1), value);
  EXPECT_EQ(cache.size(), 4u);

  // Watermark 2: exactly the two epoch-1 entries go.
  EXPECT_EQ(cache.EvictEpochsBelow(2), 2u);
  EXPECT_EQ(cache.size(), 2u);
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(CacheKey::Make(knn, 1), &out));
  EXPECT_FALSE(cache.Lookup(CacheKey::Make(other, 1), &out));
  EXPECT_TRUE(cache.Lookup(CacheKey::Make(knn, 2), &out));
  EXPECT_TRUE(cache.Lookup(CacheKey::Make(knn, 3), &out));

  // Re-running the sweep at the same watermark is a no-op.
  EXPECT_EQ(cache.EvictEpochsBelow(2), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// Lock-free end-to-end: batches run against the RCU index while a
// writer mutates through the engine, with the cache on. Quiesced
// results must match the index searched directly.
TEST(EngineRcuTest, ConcurrentBatchesOverRcuIndexStayCoherent) {
  const size_t kDims = 3;
  VersionedIndex::Options vopts;
  vopts.merge_threshold = 32;
  VersionedIndex index(kDims, vopts);
  auto coords = RandomVectors(128, kDims, 17);
  {
    std::vector<KdPoint> corpus(coords.size());
    for (size_t i = 0; i < coords.size(); ++i) {
      corpus[i] = {coords[i], PointId(i)};
    }
    ASSERT_TRUE(index.BulkLoad(corpus).ok());
  }

  QueryEngineOptions options;
  options.threads = 3;
  QueryEngine engine(&index, options);

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 200; ++i) {
      if (!engine.Insert(coords[i % coords.size()],
                         PointId(200000 + i)).ok()) {
        failed.store(true);
      }
    }
  });
  for (size_t round = 0; round < 20; ++round) {
    std::vector<SpatialQuery> batch;
    for (size_t i = 0; i < 16; ++i) {
      batch.push_back(
          SpatialQuery::Knn(coords[(round * 16 + i) % coords.size()], 5));
    }
    auto result = engine.Run(batch);
    if (!result.ok()) failed.store(true);
  }
  writer.join();
  ASSERT_FALSE(failed.load());

  ASSERT_TRUE(index.Freeze().ok());
  auto probe = SpatialQuery::Knn(coords[0], 8);
  auto got = engine.RunOne(probe);
  ASSERT_TRUE(got.ok());
  auto want = index.KnnSearch(probe.coords, probe.k);
  ExpectSameNeighbors(got->neighbors, want, "post-churn RCU probe");
}

}  // namespace
}  // namespace semtree
