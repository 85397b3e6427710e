// Copyright 2026 The SemTree Authors
//
// Tests for the distributed balanced bulk load: structural quality,
// exact agreement with the linear scan, and interplay with subsequent
// dynamic insertions and removals.

#include <gtest/gtest.h>

#include "common/random.h"
#include "kdtree/linear_scan.h"
#include "semtree/semantic_index.h"
#include "semtree/semtree.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"

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

struct BulkCase {
  size_t n;
  size_t dims;
  size_t bucket;
  size_t partitions;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<BulkCase>& info) {
  const BulkCase& c = info.param;
  return "n" + std::to_string(c.n) + "_d" + std::to_string(c.dims) +
         "_b" + std::to_string(c.bucket) + "_p" +
         std::to_string(c.partitions) + "_s" + std::to_string(c.seed);
}

class BulkLoadEquivalence : public ::testing::TestWithParam<BulkCase> {};

TEST_P(BulkLoadEquivalence, MatchesLinearScan) {
  const BulkCase& c = GetParam();
  SemTreeOptions opts;
  opts.dimensions = c.dims;
  opts.bucket_size = c.bucket;
  opts.max_partitions = c.partitions;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(c.n, c.dims, c.seed);
  LinearScanIndex scan(c.dims);
  for (const auto& p : points) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  ASSERT_TRUE((*tree)->BulkLoadBalanced(points).ok());
  EXPECT_EQ((*tree)->size(), c.n);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  if (c.partitions > 1 && c.n > c.bucket * 4) {
    EXPECT_EQ((*tree)->PartitionCount(), c.partitions);
  }
  Rng rng(c.seed + 7);
  for (int q = 0; q < 15; ++q) {
    std::vector<double> query(c.dims);
    for (double& x : query) x = rng.UniformDouble(-1.2, 1.2);
    auto knn = (*tree)->KnnSearch(query, 9);
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(*knn, scan.KnnSearch(query, 9));
    auto range = (*tree)->RangeSearch(query, 0.5);
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(*range, scan.RangeSearch(query, 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BulkLoadEquivalence,
    ::testing::Values(BulkCase{500, 2, 8, 1, 1},
                      BulkCase{1000, 4, 16, 3, 2},
                      BulkCase{2000, 8, 32, 5, 3},
                      BulkCase{2000, 3, 8, 9, 4},
                      BulkCase{100, 2, 64, 9, 5},  // Fits one bucket-ish.
                      BulkCase{1500, 6, 4, 16, 6}),
    CaseName);

TEST(BulkLoadTest, RequiresEmptyTree) {
  SemTreeOptions opts;
  opts.dimensions = 2;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Insert({0.1, 0.2}, 0).ok());
  EXPECT_TRUE((*tree)
                  ->BulkLoadBalanced(RandomPoints(10, 2, 1))
                  .IsFailedPrecondition());
}

TEST(BulkLoadTest, RefusesATreeEmptiedByRemoves) {
  // The removes leave the routing nodes the inserts split in partition
  // 0, so a load would build under a root nothing links to (one
  // region) or count its points before its skeleton is refused
  // (several regions).
  for (size_t max_partitions : {1u, 4u}) {
    SCOPED_TRACE(max_partitions);
    SemTreeOptions opts;
    opts.dimensions = 2;
    opts.bucket_size = 4;
    opts.max_partitions = max_partitions;
    auto tree = SemTree::Create(opts);
    ASSERT_TRUE(tree.ok());
    SemTree& t = **tree;
    const std::vector<KdPoint> early = RandomPoints(20, 2, 31);
    for (const KdPoint& p : early) ASSERT_TRUE(t.Insert(p.coords, p.id).ok());
    for (const KdPoint& p : early) ASSERT_TRUE(t.Remove(p.coords, p.id).ok());
    ASSERT_EQ(t.size(), 0u);

    Status st = t.BulkLoadBalanced(RandomPoints(50, 2, 32));
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.PartitionCount(), 1u);
    EXPECT_TRUE(t.CheckInvariants().ok());

    // The tree still takes inserts, and k-NN finds each of them.
    std::vector<KdPoint> late = RandomPoints(30, 2, 33);
    for (KdPoint& p : late) {
      p.id += 1000;
      ASSERT_TRUE(t.Insert(p.coords, p.id).ok());
    }
    EXPECT_EQ(t.size(), late.size());
    EXPECT_TRUE(t.CheckInvariants().ok());
    for (const KdPoint& p : late) {
      auto knn = t.KnnSearch(p.coords, 1);
      ASSERT_TRUE(knn.ok());
      ASSERT_EQ(knn->size(), 1u);
      EXPECT_EQ((*knn)[0].id, p.id);
    }
  }
}

TEST(BulkLoadTest, ValidatesDimensions) {
  SemTreeOptions opts;
  opts.dimensions = 3;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE((*tree)
                  ->BulkLoadBalanced(RandomPoints(10, 2, 1))
                  .IsInvalidArgument());
  // Empty is a no-op (spelled explicitly: {} would be ambiguous between
  // the KdPoint-vector and PointBlock overloads).
  EXPECT_TRUE((*tree)->BulkLoadBalanced(std::vector<KdPoint>{}).ok());
  EXPECT_EQ((*tree)->size(), 0u);
}

TEST(BulkLoadTest, EvenDistributionAcrossPartitions) {
  SemTreeOptions opts;
  opts.dimensions = 4;
  opts.bucket_size = 16;
  opts.max_partitions = 9;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->BulkLoadBalanced(RandomPoints(8000, 4, 11)).ok());
  auto stats = (*tree)->AllPartitionStats();
  ASSERT_EQ(stats.size(), 9u);
  EXPECT_EQ(stats[0].points, 0u);  // Root partition is pure routing.
  size_t total = 0;
  for (size_t i = 1; i < stats.size(); ++i) {
    total += stats[i].points;
    // Median splits: every data partition holds within 3x of fair
    // share.
    EXPECT_GT(stats[i].points, 8000u / 24) << stats[i].ToString();
    EXPECT_LT(stats[i].points, 3 * 8000u / 8) << stats[i].ToString();
  }
  EXPECT_EQ(total, 8000u);
}

TEST(BulkLoadTest, DynamicOperationsAfterBulkLoad) {
  SemTreeOptions opts;
  opts.dimensions = 3;
  opts.bucket_size = 8;
  opts.max_partitions = 5;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  auto points = RandomPoints(1000, 3, 13);
  ASSERT_TRUE((*tree)->BulkLoadBalanced(points).ok());

  // Insert more, remove some, verify against a rebuilt scan.
  auto extra = RandomPoints(300, 3, 14);
  for (auto& p : extra) p.id += 1000;
  for (const auto& p : extra) {
    ASSERT_TRUE((*tree)->Insert(p.coords, p.id).ok());
  }
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE((*tree)->Remove(points[i].coords, points[i].id).ok());
  }
  EXPECT_EQ((*tree)->size(), 1200u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());

  LinearScanIndex scan(3);
  for (size_t i = 100; i < points.size(); ++i) {
    ASSERT_TRUE(scan.Insert(points[i].coords, points[i].id).ok());
  }
  for (const auto& p : extra) ASSERT_TRUE(scan.Insert(p.coords, p.id).ok());
  Rng rng(15);
  for (int q = 0; q < 10; ++q) {
    std::vector<double> query(3);
    for (double& x : query) x = rng.UniformDouble(-1, 1);
    auto knn = (*tree)->KnnSearch(query, 6);
    ASSERT_TRUE(knn.ok());
    EXPECT_EQ(*knn, scan.KnnSearch(query, 6));
  }
}

TEST(BulkLoadTest, SemanticIndexBulkLoadOption) {
  Taxonomy vocab = RequirementsVocabulary();
  RequirementsCorpusGenerator gen(&vocab, {.num_documents = 10,
                                           .seed = 17});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());

  SemanticIndexOptions a;
  a.fastmap.dimensions = 6;
  SemanticIndexOptions b = a;
  b.bulk_load = true;
  b.max_partitions = 5;
  auto ia = SemanticIndex::Build(&vocab, *triples, a);
  auto ib = SemanticIndex::Build(&vocab, *triples, b);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok()) << ib.status().ToString();
  EXPECT_GT((*ib)->tree().PartitionCount(), 1u);
  // Same embedding, same results.
  Rng rng(19);
  for (int q = 0; q < 8; ++q) {
    const Triple& query = (*triples)[rng.Uniform(triples->size())];
    auto ha = (*ia)->KnnQuery(query, 5);
    auto hb = (*ib)->KnnQuery(query, 5);
    ASSERT_TRUE(ha.ok());
    ASSERT_TRUE(hb.ok());
    ASSERT_EQ(ha->size(), hb->size());
    for (size_t i = 0; i < ha->size(); ++i) {
      EXPECT_EQ((*ha)[i].id, (*hb)[i].id);
    }
  }
}

}  // namespace
}  // namespace semtree
