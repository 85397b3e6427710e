// Copyright 2026 The SemTree Authors
//
// Edge-case tests for the SemanticIndex facade: degenerate corpora,
// extreme weights, determinism of query embedding, and option
// interplay (bulk load + persistence, distributed + rerank).

#include <cstring>

#include <gtest/gtest.h>

#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"
#include "persist/wire.h"
#include "semtree/index_io.h"
#include "semtree/semantic_index.h"

namespace semtree {
namespace {

class SemanticIndexEdgeTest : public ::testing::Test {
 protected:
  SemanticIndexEdgeTest() : vocab_(RequirementsVocabulary()) {}

  static Triple Req(const std::string& actor, const std::string& fn,
                    const std::string& param) {
    return Triple(Term::Literal(actor), Term::Concept(fn, "Fun"),
                  Term::Concept(param, "CmdType"));
  }

  Taxonomy vocab_;
};

TEST_F(SemanticIndexEdgeTest, SingleTripleCorpus) {
  std::vector<Triple> corpus = {Req("OBSW001", "accept_cmd",
                                    "startup_cmd")};
  auto index = SemanticIndex::Build(&vocab_, corpus, {});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->size(), 1u);
  auto hits = (*index)->KnnQuery(corpus[0], 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, 0u);
  EXPECT_NEAR((*hits)[0].semantic_distance, 0.0, 1e-12);
}

TEST_F(SemanticIndexEdgeTest, AllIdenticalTriples) {
  std::vector<Triple> corpus(20, Req("OBSW001", "accept_cmd",
                                     "startup_cmd"));
  auto index = SemanticIndex::Build(&vocab_, corpus, {});
  ASSERT_TRUE(index.ok());
  // Degenerate embedding: everything at the origin; queries still work.
  EXPECT_EQ((*index)->fastmap().effective_dimensions(), 0u);
  auto hits = (*index)->KnnQuery(corpus[0], 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
  auto range = (*index)->RangeQuery(corpus[0], 0.0);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 20u);
}

TEST_F(SemanticIndexEdgeTest, TwoClustersSeparateCleanly) {
  // Two well-separated families; k-NN inside one must not leak into
  // the other.
  std::vector<Triple> corpus;
  for (int i = 0; i < 10; ++i) {
    corpus.push_back(Req("OBSW00" + std::to_string(i % 3), "accept_cmd",
                         "startup_cmd"));
  }
  for (int i = 0; i < 10; ++i) {
    corpus.push_back(Triple(
        Term::Literal("PSU90" + std::to_string(i % 3)),
        Term::Concept("power_on", "Fun"),
        Term::Concept("battery", "DevType")));
  }
  SemanticIndexOptions opts;
  opts.fastmap.dimensions = 4;
  auto index = SemanticIndex::Build(&vocab_, corpus, opts);
  ASSERT_TRUE(index.ok());
  auto hits = (*index)->KnnQuery(corpus[0], 10);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) {
    EXPECT_LT(hit.id, 10u) << "leaked into the power cluster";
  }
}

TEST_F(SemanticIndexEdgeTest, ExtremeWeightsStillWork) {
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 5,
                                            .seed = 7});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  for (TripleDistanceWeights w :
       {TripleDistanceWeights{1.0, 0.0, 0.0},
        TripleDistanceWeights{0.0, 1.0, 0.0},
        TripleDistanceWeights{0.0, 0.0, 1.0}}) {
    SemanticIndexOptions opts;
    opts.weights = w;
    opts.fastmap.dimensions = 4;
    auto index = SemanticIndex::Build(&vocab_, *triples, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto hits = (*index)->KnnQuery((*triples)[0], 3);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), 3u);
  }
}

TEST_F(SemanticIndexEdgeTest, EmbedIsDeterministic) {
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 5,
                                            .seed = 9});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  auto index = SemanticIndex::Build(&vocab_, *triples, {});
  ASSERT_TRUE(index.ok());
  Triple query = Req("GHOST99", "block_cmd", "reset");
  EXPECT_EQ((*index)->Embed(query), (*index)->Embed(query));
  // A different query embeds differently (non-degenerate space).
  Triple other(Term::Literal("PSU123"),
               Term::Concept("power_off", "Fun"),
               Term::Concept("battery", "DevType"));
  EXPECT_NE((*index)->Embed(query), (*index)->Embed(other));
}

TEST_F(SemanticIndexEdgeTest, BulkLoadPersistReloadPipeline) {
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 8,
                                            .seed = 11});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  SemanticIndexOptions opts;
  opts.fastmap.dimensions = 6;
  opts.bulk_load = true;
  opts.max_partitions = 5;
  auto index = SemanticIndex::Build(&vocab_, *triples, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->tree().PartitionCount(), 1u);

  // Persist the distributed, bulk-loaded index; reload single-node.
  std::string text = SerializeIndex(**index);
  auto bundle = ParseIndex(text);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const Triple& query = (*triples)[3];
  auto a = (*index)->KnnQuery(query, 6);
  auto b = bundle->index->KnnQuery(query, 6);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].id, (*b)[i].id);
  }
}

TEST_F(SemanticIndexEdgeTest, HitsExposeBothDistances) {
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 5,
                                            .seed = 13});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  auto index = SemanticIndex::Build(&vocab_, *triples, {});
  ASSERT_TRUE(index.ok());
  const Triple& query = (*triples)[1];
  auto hits = (*index)->KnnQuery(query, 8);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) {
    // Semantic distance recomputed exactly.
    EXPECT_DOUBLE_EQ(
        hit.semantic_distance,
        (*index)->SemanticDistance(query, (*index)->triple(hit.id)));
    EXPECT_GE(hit.embedded_distance, 0.0);
  }
  // Without rerank, ordering follows the embedded distance.
  for (size_t i = 1; i < hits->size(); ++i) {
    EXPECT_GE((*hits)[i].embedded_distance,
              (*hits)[i - 1].embedded_distance - 1e-12);
  }
}

TEST_F(SemanticIndexEdgeTest, BuildThreadsBuildTheSameBytes) {
  // 5,000 triples: above kParallelCutoff, so training and the tree's
  // bulk load both run on the pool at 4 threads.
  CorpusOptions copts;
  copts.num_documents = 120;
  copts.min_requirements_per_doc = 40;
  copts.max_requirements_per_doc = 60;
  copts.num_actors = 100;
  copts.seed = 19;
  RequirementsCorpusGenerator gen(&vocab_, copts);
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  ASSERT_GE(triples->size(), 5000u);
  triples->resize(5000);
  SemanticIndexOptions opts;
  opts.bulk_load = true;
  opts.build_threads = 1;
  auto serial = SemanticIndex::Build(&vocab_, *triples, opts);
  opts.build_threads = 4;
  auto parallel = SemanticIndex::Build(&vocab_, *triples, opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  const FastMap& a = (*serial)->fastmap();
  const FastMap& b = (*parallel)->fastmap();
  ASSERT_EQ(a.flat_coordinates().size(), b.flat_coordinates().size());
  EXPECT_EQ(std::memcmp(a.flat_coordinates().data(),
                        b.flat_coordinates().data(),
                        a.flat_coordinates().size() * sizeof(double)),
            0);
  EXPECT_EQ(a.pivots(), b.pivots());
  EXPECT_EQ(a.pivot_distances(), b.pivot_distances());

  persist::ByteWriter wa;
  persist::ByteWriter wb;
  ASSERT_TRUE((*serial)->tree().SaveTo(&wa).ok());
  ASSERT_TRUE((*parallel)->tree().SaveTo(&wb).ok());
  EXPECT_TRUE(wa.bytes() == wb.bytes());

  std::vector<Triple> queries;
  for (size_t i = 0; i < triples->size(); i += 97) {
    queries.push_back((*triples)[i]);
  }
  queries.push_back(Req("GHOST99", "block_cmd", "reset"));
  for (const Triple& q : queries) {
    const std::vector<double> ea = (*serial)->Embed(q);
    const std::vector<double> eb = (*parallel)->Embed(q);
    ASSERT_EQ(ea.size(), eb.size());
    EXPECT_EQ(std::memcmp(ea.data(), eb.data(), ea.size() * sizeof(double)),
              0)
        << q.ToString();
  }
}

}  // namespace
}  // namespace semtree
