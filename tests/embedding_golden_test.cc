// Copyright 2026 The SemTree Authors
//
// Golden byte-identity of the semantic embedding. A fixed-seed
// SemanticIndex::Build is hashed (training coordinates, pivots, pivot
// distances), and so are Embed outputs for corpus triples and for
// out-of-corpus queries that reach every branch of the element
// distance. The expected hashes were captured from the breadth-first
// taxonomy walks that preceded the ancestor-closure arrays and the
// prepared triples, so a change to how Eq. (1) is evaluated that moves
// any bit fails here. Restore, RestoreWithTree and LoadIndex must then
// reproduce the same Embed bytes.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"
#include "persist/index_snapshot.h"
#include "semtree/index_io.h"
#include "semtree/semantic_index.h"

namespace semtree {
namespace {

// Captured from the breadth-first implementation; see the file comment.
constexpr uint64_t kEmbeddingHash = 2642474756500998679ull;
constexpr uint64_t kQueryHash = 13413589126487525150ull;

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashDoubles(const std::vector<double>& v, uint64_t h) {
  return Fnv1a(v.data(), v.size() * sizeof(double), h);
}

// Coordinates, pivot pairs and pivot distances of the trained map.
uint64_t EmbeddingHash(const FastMap& fm) {
  uint64_t h = HashDoubles(fm.flat_coordinates(), kFnvOffset);
  for (const auto& [a, b] : fm.pivots()) {
    const uint64_t pair[2] = {a, b};
    h = Fnv1a(pair, sizeof(pair), h);
  }
  return HashDoubles(fm.pivot_distances(), h);
}

uint64_t QueryHash(const SemanticIndex& index,
                   const std::vector<Triple>& queries) {
  uint64_t h = kFnvOffset;
  for (const Triple& q : queries) h = HashDoubles(index.Embed(q), h);
  return h;
}

class EmbeddingGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = RequirementsVocabulary();
    CorpusOptions copts;
    copts.num_documents = 200;
    copts.seed = 2026;
    RequirementsCorpusGenerator gen(&vocab_, copts);
    auto triples = gen.GenerateTriples();
    ASSERT_TRUE(triples.ok()) << triples.status().ToString();
    corpus_ = std::move(*triples);

    options_.fastmap.dimensions = 8;
    options_.fastmap.seed = 7;
    auto index = SemanticIndex::Build(&vocab_, corpus_, options_);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);

    // Every corpus triple, then queries outside the corpus.
    queries_ = corpus_;
    const Triple& pivot = corpus_[index_->fastmap().pivots()[0].first];
    queries_.push_back(Triple(pivot.subject, pivot.predicate,
                              pivot.object));  // Equal to a pivot.
    queries_.push_back(Triple(Term::Literal("OBSW001"),
                              Term::Concept("no_such_function", "Fun"),
                              Term::Concept("startup_cmd", "CmdType")));
    queries_.push_back(Triple(Term::Concept("obsw_component"),
                              Term::Literal("accept_cmd"),
                              Term::Concept("startup_cmd", "CmdType")));
    queries_.push_back(Triple(Term::Literal("PSU900"),
                              Term::Concept("reject_cmd", "Fun"),
                              Term::Concept("boot", "CmdType")));
  }

  Taxonomy vocab_;
  std::vector<Triple> corpus_;
  SemanticIndexOptions options_;
  std::unique_ptr<SemanticIndex> index_;
  std::vector<Triple> queries_;
};

TEST_F(EmbeddingGoldenTest, CorpusIsLargeEnough) {
  EXPECT_GT(corpus_.size(), 2000u);
  EXPECT_EQ(index_->fastmap().effective_dimensions(), 8u);
}

TEST_F(EmbeddingGoldenTest, TrainedEmbeddingMatchesGolden) {
  EXPECT_EQ(EmbeddingHash(index_->fastmap()), kEmbeddingHash);
}

TEST_F(EmbeddingGoldenTest, EmbedMatchesGolden) {
  EXPECT_EQ(QueryHash(*index_, queries_), kQueryHash);
}

void ExpectSameEmbeds(const SemanticIndex& want, const SemanticIndex& got,
                      const std::vector<Triple>& queries) {
  for (const Triple& q : queries) {
    const std::vector<double> a = want.Embed(q);
    const std::vector<double> b = got.Embed(q);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << q.ToString();
  }
}

TEST_F(EmbeddingGoldenTest, RestoreEmbedsIdentically) {
  auto restored =
      SemanticIndex::Restore(&vocab_, corpus_, index_->fastmap(), options_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameEmbeds(*index_, **restored, queries_);
}

TEST_F(EmbeddingGoldenTest, LoadIndexEmbedsIdenticallyFromBothFormats) {
  // v1 text goes through Restore, the v2 snapshot through
  // RestoreWithTree; each loads its own copy of the vocabulary.
  const std::string v1 = ::testing::TempDir() + "/golden_index.txt";
  const std::string v2 = ::testing::TempDir() + "/golden_index.snap";
  ASSERT_TRUE(SaveIndex(*index_, v1).ok());
  ASSERT_TRUE(persist::SaveIndexSnapshot(*index_, v2).ok());
  for (const std::string& path : {v1, v2}) {
    auto bundle = LoadIndex(path);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    ExpectSameEmbeds(*index_, *bundle->index, queries_);
  }
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

}  // namespace
}  // namespace semtree
