// Copyright 2026 The SemTree Authors
//
// Edge-case tests for the SemanticIndex facade: degenerate corpora,
// extreme weights, determinism of query embedding, and option
// interplay (bulk load + persistence, distributed + rerank).

#include <cstring>
#include <functional>
#include <thread>

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

// Embed the prepared way: Eq. (1) from the prepared query to each
// prepared pivot, in axis order, then projected.
std::vector<double> PreparedEmbed(const SemanticIndex& index,
                                  const Triple& query) {
  const TripleDistance& d = index.distance();
  const PreparedTriple q = d.Prepare(query);
  std::vector<double> to_pivots;
  for (const auto& [a, b] : index.fastmap().pivots()) {
    to_pivots.push_back(d(q, d.Prepare(index.triple(a))));
    to_pivots.push_back(d(q, d.Prepare(index.triple(b))));
  }
  return index.fastmap().Project(to_pivots);
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Builds an index over a small corpus under `measure`, applies
// `mutate` to the taxonomy, and checks that every Embed before and
// after equals the prepared form, and that the mutation moved some.
void ExpectEmbedFollowsMutation(Taxonomy* vocab, SimilarityMeasure measure,
                                const std::function<Status()>& mutate) {
  RequirementsCorpusGenerator gen(vocab, {.num_documents = 6, .seed = 15});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  SemanticIndexOptions opts;
  opts.element.concept_measure = measure;
  auto index = SemanticIndex::Build(vocab, *triples, opts);
  ASSERT_TRUE(index.ok());
  std::vector<std::vector<double>> before;
  for (const Triple& q : *triples) {
    before.push_back((*index)->Embed(q));
    ASSERT_TRUE(SameBytes(before.back(), PreparedEmbed(**index, q)));
  }
  ASSERT_TRUE(mutate().ok());
  size_t moved = 0;
  for (size_t i = 0; i < triples->size(); ++i) {
    const std::vector<double> after = (*index)->Embed((*triples)[i]);
    EXPECT_TRUE(SameBytes(after, PreparedEmbed(**index, (*triples)[i])))
        << (*triples)[i].ToString();
    moved += SameBytes(after, before[i]) ? 0 : 1;
  }
  EXPECT_GT(moved, 0u);
}

TEST_F(SemanticIndexEdgeTest, EmbedAfterAddParentIsPrepared) {
  // accept_cmd under block_cmd: their least common subsumer deepens.
  ExpectEmbedFollowsMutation(&vocab_, SimilarityMeasure::kWuPalmer, [this] {
    return vocab_.AddParent(*vocab_.Find("accept_cmd"),
                            *vocab_.Find("block_cmd"));
  });
}

TEST_F(SemanticIndexEdgeTest, EmbedUnderLinAfterAddFrequencyIsPrepared) {
  // Observed frequencies replace the uniform information content.
  ExpectEmbedFollowsMutation(&vocab_, SimilarityMeasure::kLin, [this] {
    return vocab_.AddFrequency(*vocab_.Find("accept_cmd"), 1000);
  });
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
    // Semantic distance recomputed exactly, bit for bit.
    const double want =
        (*index)->SemanticDistance(query, (*index)->triple(hit.id));
    EXPECT_EQ(std::memcmp(&hit.semantic_distance, &want, sizeof(double)), 0)
        << hit.id;
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

TEST(SemanticIndexConcurrencyTest, ConcurrentEmbedsShareTheCompiledPivots) {
  Taxonomy vocab = RequirementsVocabulary();
  RequirementsCorpusGenerator gen(&vocab, {.num_documents = 10, .seed = 31});
  auto corpus = gen.GenerateTriples();
  ASSERT_TRUE(corpus.ok());
  SemanticIndexOptions opts;
  opts.fastmap.dimensions = 4;
  opts.element.concept_measure = SimilarityMeasure::kLin;
  auto built = SemanticIndex::Build(&vocab, *corpus, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // Restore compiles the pivots over a fresh vocabulary; then four
  // clients embed at once against the one compiled set (the suite runs
  // under TSan).
  const Taxonomy fresh = RequirementsVocabulary();
  auto restored =
      SemanticIndex::Restore(&fresh, *corpus, (*built)->fastmap(), opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < corpus->size(); i += kThreads) {
        got[c].push_back((*restored)->Embed((*corpus)[i]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kThreads; ++c) {
    for (size_t k = 0; k < got[c].size(); ++k) {
      EXPECT_TRUE(SameBytes(got[c][k],
                            (*built)->Embed((*corpus)[c + k * kThreads])));
    }
  }
}

}  // namespace
}  // namespace semtree
