// Copyright 2026 The SemTree Authors
//
// Concurrency and robustness stress tests: mixed concurrent operations
// on the distributed tree, cluster message storms, random-taxonomy
// property sweeps for the similarity measures, and parser fuzzing with
// random (but well-formed) inputs.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "cluster/cluster.h"
#include "kdtree/linear_scan.h"
#include "ontology/similarity.h"
#include "ontology/vocabulary_io.h"
#include "rdf/turtle.h"
#include "semtree/semtree.h"
#include "random_taxonomy.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// SemTree under mixed concurrent load

TEST(SemTreeStressTest, ConcurrentInsertSearchRemove) {
  SemTreeOptions opts;
  opts.dimensions = 4;
  opts.bucket_size = 8;
  opts.max_partitions = 5;
  opts.partition_capacity = opts.bucket_size * opts.max_partitions;
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());

  // Preload so searches have something to chew on.
  Rng seed_rng(1);
  std::vector<KdPoint> preload(2000);
  for (size_t i = 0; i < preload.size(); ++i) {
    preload[i].id = i;
    preload[i].coords.resize(4);
    for (double& c : preload[i].coords) c = seed_rng.UniformDouble(-1, 1);
  }
  ASSERT_TRUE((*tree)->BulkInsert(preload).ok());

  std::atomic<size_t> inserts{0}, searches{0}, removes{0};
  std::atomic<bool> failed{false};
  auto worker = [&](int id, int steps) {
    Rng rng(100 + id);
    for (int s = 0; s < steps && !failed.load(); ++s) {
      double dice = rng.UniformDouble();
      std::vector<double> coords(4);
      for (double& c : coords) c = rng.UniformDouble(-1, 1);
      if (dice < 0.4) {
        PointId pid = 10000 + size_t(id) * 100000 + size_t(s);
        if (!(*tree)->Insert(coords, pid).ok()) failed.store(true);
        inserts.fetch_add(1);
      } else if (dice < 0.8) {
        auto hits = (*tree)->KnnSearch(coords, 5);
        if (!hits.ok()) failed.store(true);
        searches.fetch_add(1);
      } else {
        // Remove a preloaded point (may already be gone — both
        // outcomes are legal under concurrency).
        size_t victim = rng.Uniform(preload.size());
        Status st =
            (*tree)->Remove(preload[victim].coords, preload[victim].id);
        if (!st.ok() && !st.IsNotFound()) failed.store(true);
        removes.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) threads.emplace_back(worker, t, 300);
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(inserts.load(), 0u);
  EXPECT_GT(searches.load(), 0u);
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
}

TEST(SemTreeStressTest, ManyPartitionsTinyCapacity) {
  // Degenerate configuration: as many partitions as possible, spread
  // aggressively, with latency on.
  SemTreeOptions opts;
  opts.dimensions = 2;
  opts.bucket_size = 2;
  opts.max_partitions = 24;
  opts.partition_capacity = 8;
  opts.network_latency = std::chrono::microseconds(10);
  auto tree = SemTree::Create(opts);
  ASSERT_TRUE(tree.ok());
  Rng rng(3);
  LinearScanIndex scan(2);
  for (PointId i = 0; i < 600; ++i) {
    std::vector<double> coords = {rng.UniformDouble(-1, 1),
                                  rng.UniformDouble(-1, 1)};
    ASSERT_TRUE((*tree)->Insert(coords, i).ok());
    ASSERT_TRUE(scan.Insert(coords, i).ok());
  }
  EXPECT_TRUE((*tree)->CheckInvariants().ok());
  for (int q = 0; q < 10; ++q) {
    std::vector<double> query = {rng.UniformDouble(-1, 1),
                                 rng.UniformDouble(-1, 1)};
    auto got = (*tree)->KnnSearch(query, 7);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, scan.KnnSearch(query, 7));
  }
}

// ---------------------------------------------------------------------
// Cluster message storm

TEST(ClusterStressTest, ManyClientsManyNodes) {
  Cluster cluster;
  constexpr uint32_t kEcho = 1;
  std::vector<ComputeNode*> nodes;
  for (int i = 0; i < 8; ++i) {
    ComputeNode* n = cluster.AddNode([&cluster](const Message& m) {
      cluster.Respond(m, m.payload);
    });
    nodes.push_back(n);
  }
  std::atomic<int> ok{0};
  auto client = [&](int id) {
    Rng rng(static_cast<uint64_t>(id));
    for (int i = 0; i < 400; ++i) {
      NodeId target = NodeId(rng.Uniform(nodes.size()));
      auto result =
          cluster.CallAndWait(target, kEcho, MakePayload<int>(i));
      if (result.ok() && PayloadAs<int>(*result) == i) ok.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) clients.emplace_back(client, c);
  for (auto& th : clients) th.join();
  EXPECT_EQ(ok.load(), 6 * 400);
  EXPECT_GE(cluster.Stats().calls, 2400u);
}

TEST(ClusterStressTest, ShutdownDuringTraffic) {
  // Shutdown must resolve every outstanding call instead of hanging.
  auto cluster = std::make_unique<Cluster>();
  constexpr uint32_t kSlow = 1;
  ComputeNode* node = cluster->AddNode([&](const Message& m) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    cluster->Respond(m, m.payload);
  });
  std::vector<std::future<Payload>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(
        cluster->Call(node->id(), kSlow, MakePayload<int>(i)));
  }
  cluster->Shutdown();
  // Every future resolves (value or nullptr) — no deadlock, no throw.
  for (auto& f : futures) (void)f.get();
}

// ---------------------------------------------------------------------
// Random-taxonomy property sweep for the similarity measures

class RandomTaxonomyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTaxonomyProperty, AllMeasuresAreWellBehaved) {
  Taxonomy tax = RandomTaxonomy(120, GetParam());
  Rng rng(GetParam() + 1000);
  const SimilarityMeasure kMeasures[] = {
      SimilarityMeasure::kWuPalmer, SimilarityMeasure::kPath,
      SimilarityMeasure::kLeacockChodorow, SimilarityMeasure::kResnik,
      SimilarityMeasure::kLin};
  for (int s = 0; s < 150; ++s) {
    ConceptId a = ConceptId(rng.Uniform(tax.size()));
    ConceptId b = ConceptId(rng.Uniform(tax.size()));
    // LCS is a common ancestor at least as deep as the root.
    ConceptId lcs = tax.LowestCommonSubsumer(a, b);
    EXPECT_TRUE(tax.IsAncestor(lcs, a));
    EXPECT_TRUE(tax.IsAncestor(lcs, b));
    // Path length is symmetric and satisfies identity.
    EXPECT_EQ(tax.ShortestPathEdges(a, b), tax.ShortestPathEdges(b, a));
    for (SimilarityMeasure m : kMeasures) {
      double sab = ConceptSimilarity(m, tax, a, b);
      double sba = ConceptSimilarity(m, tax, b, a);
      EXPECT_DOUBLE_EQ(sab, sba);
      EXPECT_GE(sab, 0.0);
      EXPECT_LE(sab, 1.0);
      if (a == b) {
        EXPECT_DOUBLE_EQ(sab, 1.0);
      }
      // Self-similarity dominates cross-similarity.
      EXPECT_LE(sab, ConceptSimilarity(m, tax, a, a) + 1e-12);
    }
  }
}

TEST_P(RandomTaxonomyProperty, VocabularyIoRoundTrips) {
  Taxonomy tax = RandomTaxonomy(80, GetParam() + 5);
  auto reparsed = ParseVocabulary(SerializeVocabulary(tax));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->size(), tax.size());
  for (ConceptId c = 0; c < tax.size(); ++c) {
    EXPECT_EQ(reparsed->Depth(c), tax.Depth(c));
    EXPECT_EQ(reparsed->parents(c), tax.parents(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTaxonomyProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------
// Turtle fuzz: random well-formed triples must round-trip

TEST(TurtleFuzzTest, RandomTriplesRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::vector<Triple> triples;
    size_t count = 1 + rng.Uniform(20);
    for (size_t i = 0; i < count; ++i) {
      auto random_term = [&]() {
        switch (rng.Uniform(3)) {
          case 0:
            return Term::Literal(rng.Identifier(1 + rng.Uniform(10)));
          case 1:
            return Term::Concept(rng.Identifier(1 + rng.Uniform(8)));
          default:
            return Term::Concept(rng.Identifier(1 + rng.Uniform(8)),
                                 rng.Identifier(1 + rng.Uniform(4)));
        }
      };
      triples.emplace_back(random_term(), random_term(), random_term());
    }
    auto parsed = ParseTriples(SerializeTriples(triples));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, triples);
  }
}

}  // namespace
}  // namespace semtree
