// Copyright 2026 The SemTree Authors
//
// Tests for src/distance: Eq. (1) semantics, element dispatch,
// prepared and compiled triples, distance matrices, concurrent first
// use of a fresh vocabulary, and the metric audit.

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "distance/distance_matrix.h"
#include "distance/element_distance.h"
#include "distance/metric_audit.h"
#include "distance/triple_distance.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"

namespace semtree {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------
// Weights

TEST(WeightsTest, DefaultIsValidUniform) {
  TripleDistanceWeights w;
  EXPECT_TRUE(w.Validate().ok());
  EXPECT_NEAR(w.alpha + w.beta + w.gamma, 1.0, 1e-12);
}

TEST(WeightsTest, RejectsBadWeights) {
  TripleDistanceWeights w{0.5, 0.5, 0.5};
  EXPECT_TRUE(w.Validate().IsInvalidArgument());
  TripleDistanceWeights neg{-0.2, 0.6, 0.6};
  EXPECT_TRUE(neg.Validate().IsInvalidArgument());
}

TEST(WeightsTest, DegenerateButValidExtremes) {
  TripleDistanceWeights w{1.0, 0.0, 0.0};
  EXPECT_TRUE(w.Validate().ok());
}

// ---------------------------------------------------------------------
// Element distance

class ElementDistanceTest : public ::testing::Test {
 protected:
  ElementDistanceTest() : vocab_(RequirementsVocabulary()) {}
  Taxonomy vocab_;
};

TEST_F(ElementDistanceTest, LiteralsUseStringDistance) {
  ElementDistance dist(&vocab_, {});
  EXPECT_DOUBLE_EQ(dist(Term::Literal("OBSW001"), Term::Literal("OBSW001")),
                   0.0);
  double d = dist(Term::Literal("OBSW001"), Term::Literal("OBSW002"));
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.2);  // One character out of seven differs.
}

TEST_F(ElementDistanceTest, ConceptsUseTaxonomy) {
  ElementDistance dist(&vocab_, {});
  double same_family = dist(Term::Concept("accept_cmd", "Fun"),
                            Term::Concept("block_cmd", "Fun"));
  double cross_family = dist(Term::Concept("accept_cmd", "Fun"),
                             Term::Concept("power_on", "Fun"));
  EXPECT_LT(same_family, cross_family);
  EXPECT_DOUBLE_EQ(dist(Term::Concept("accept_cmd"),
                        Term::Concept("accept_cmd")),
                   0.0);
}

TEST_F(ElementDistanceTest, SynonymsAreZeroDistance) {
  ElementDistance dist(&vocab_, {});
  EXPECT_DOUBLE_EQ(
      dist(Term::Concept("reject_cmd"), Term::Concept("block_cmd")), 0.0);
}

TEST_F(ElementDistanceTest, MixedKindsGetMaxDistance) {
  ElementDistance dist(&vocab_, {});
  EXPECT_DOUBLE_EQ(
      dist(Term::Literal("accept_cmd"), Term::Concept("accept_cmd")), 1.0);
}

TEST_F(ElementDistanceTest, MixedKindDistanceConfigurable) {
  ElementDistanceOptions opts;
  opts.mixed_kind_distance = 0.5;
  ElementDistance dist(&vocab_, opts);
  EXPECT_DOUBLE_EQ(dist(Term::Literal("x"), Term::Concept("y")), 0.5);
}

TEST_F(ElementDistanceTest, UnknownConceptsFallBackToStrings) {
  ElementDistance dist(&vocab_, {});
  double d = dist(Term::Concept("not_in_vocab_a"),
                  Term::Concept("not_in_vocab_b"));
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
  EXPECT_DOUBLE_EQ(
      dist(Term::Concept("zzz_unknown"), Term::Concept("zzz_unknown")),
      0.0);
}

TEST_F(ElementDistanceTest, AlternativeMeasuresSelectable) {
  for (SimilarityMeasure m :
       {SimilarityMeasure::kPath, SimilarityMeasure::kResnik,
        SimilarityMeasure::kLin, SimilarityMeasure::kLeacockChodorow}) {
    ElementDistanceOptions opts;
    opts.concept_measure = m;
    ElementDistance dist(&vocab_, opts);
    double d = dist(Term::Concept("accept_cmd"),
                    Term::Concept("block_cmd"));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

// ---------------------------------------------------------------------
// Triple distance (Eq. 1)

class TripleDistanceTest : public ::testing::Test {
 protected:
  TripleDistanceTest() : vocab_(RequirementsVocabulary()) {}

  static Triple Req(const std::string& actor, const std::string& fn,
                    const std::string& param) {
    return Triple(Term::Literal(actor), Term::Concept(fn, "Fun"),
                  Term::Concept(param, "Type"));
  }

  Taxonomy vocab_;
};

TEST_F(TripleDistanceTest, MakeRejectsNullTaxonomyAndBadWeights) {
  EXPECT_FALSE(TripleDistance::Make(nullptr).ok());
  EXPECT_FALSE(
      TripleDistance::Make(&vocab_, TripleDistanceWeights{1, 1, 1}).ok());
}

TEST_F(TripleDistanceTest, IdentityAndSymmetry) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  Triple a = Req("OBSW001", "accept_cmd", "startup_cmd");
  Triple b = Req("OBSW002", "send_msg", "heartbeat");
  EXPECT_DOUBLE_EQ((*dist)(a, a), 0.0);
  EXPECT_DOUBLE_EQ((*dist)(a, b), (*dist)(b, a));
}

TEST_F(TripleDistanceTest, WeightedCompositionMatchesComponents) {
  TripleDistanceWeights w{0.5, 0.3, 0.2};
  auto dist = TripleDistance::Make(&vocab_, w);
  ASSERT_TRUE(dist.ok());
  Triple a = Req("OBSW001", "accept_cmd", "startup_cmd");
  Triple b = Req("OBSW009", "block_cmd", "reset");
  auto c = dist->ComponentDistances(a, b);
  EXPECT_NEAR((*dist)(a, b),
              0.5 * c.subject + 0.3 * c.predicate + 0.2 * c.object, 1e-12);
}

TEST_F(TripleDistanceTest, InconsistentPairCloserThanUnrelated) {
  // The heart of the case study: the target triple (antonymic
  // predicate, same subject/object) must be much closer to the
  // contradicting requirement than to unrelated requirements.
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  Triple original = Req("OBSW001", "accept_cmd", "startup_cmd");
  Triple target = Req("OBSW001", "block_cmd", "startup_cmd");
  Triple unrelated = Req("OBSW044", "dump_data", "science_archive");
  EXPECT_LT((*dist)(target, original), (*dist)(target, unrelated));
  // Only the predicate differs, so d <= beta * 1.
  EXPECT_LE((*dist)(target, original), 1.0 / 3.0 + 1e-12);
}

TEST_F(TripleDistanceTest, ZeroWeightIgnoresPosition) {
  TripleDistanceWeights w{0.0, 1.0, 0.0};
  auto dist = TripleDistance::Make(&vocab_, w);
  ASSERT_TRUE(dist.ok());
  Triple a = Req("OBSW001", "accept_cmd", "startup_cmd");
  Triple b = Req("ZZZZZZZ", "accept_cmd", "heartbeat");
  EXPECT_DOUBLE_EQ((*dist)(a, b), 0.0);  // Same predicate, rest ignored.
}

TEST_F(TripleDistanceTest, RangeAlwaysUnitInterval) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 5,
                                            .seed = 5});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  for (size_t i = 0; i < triples->size(); ++i) {
    for (size_t j = 0; j < triples->size(); j += 7) {
      double d = (*dist)((*triples)[i], (*triples)[j]);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

// ---------------------------------------------------------------------
// Prepared triples

TEST_F(TripleDistanceTest, PreparedResolvesConceptsOnce) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  const Triple t(Term::Literal("OBSW001"), Term::Concept("reject_cmd", "Fun"),
                 Term::Concept("no_such_param", "Type"));
  const PreparedTriple p = dist->Prepare(t);
  EXPECT_EQ(p.subject.term, &t.subject);
  EXPECT_EQ(p.subject.concept_id, kInvalidConcept);  // A literal.
  EXPECT_EQ(p.predicate.concept_id, *vocab_.Find("block_cmd"));  // Alias.
  EXPECT_EQ(p.object.concept_id, kInvalidConcept);  // Out of vocabulary.
}

// ---------------------------------------------------------------------
// Compiled triples

// Triples that reach every branch of the element dispatch from either
// side: a synonym, mixed kinds, out-of-vocabulary concepts, an empty
// literal, a literal longer than the bit-parallel Levenshtein's 64
// bytes, and bytes of 0x80 and above.
std::vector<Triple> EdgeTriples() {
  const Term startup = Term::Concept("startup_cmd", "CmdType");
  return {
      Triple(Term::Literal("OBSW001"), Term::Concept("accept_cmd", "Fun"),
             startup),
      Triple(Term::Literal("OBSW001"), Term::Concept("reject_cmd", "Fun"),
             startup),  // reject_cmd is a synonym of block_cmd.
      Triple(Term::Literal("OBSW001"), Term::Concept("block_cmd", "Fun"),
             startup),
      Triple(Term::Concept("obsw_component"), Term::Literal("accept_cmd"),
             Term::Concept("boot", "CmdType")),
      Triple(Term::Literal("PSU900"), Term::Concept("no_such_function", "Fun"),
             Term::Concept("no_such_param", "Type")),
      Triple(Term::Literal(""), Term::Concept("send_msg", "Fun"), startup),
      Triple(Term::Literal(std::string(70, 'O') + "BSW001"),
             Term::Concept("accept_cmd", "Fun"), startup),
      Triple(Term::Literal("\xc3\x89t\xc3\xa9-\xff"),
             Term::Concept("transmit_msg", "Fun"),
             Term::Concept("no_such_param", "Type")),
  };
}

TEST_F(TripleDistanceTest, CompiledEqualsPreparedBitForBit) {
  CorpusOptions copts;
  copts.num_documents = 120;
  copts.min_requirements_per_doc = 40;
  copts.max_requirements_per_doc = 60;
  copts.num_actors = 100;
  copts.seed = 19;
  RequirementsCorpusGenerator gen(&vocab_, copts);
  auto corpus = gen.GenerateTriples();
  ASSERT_TRUE(corpus.ok());
  ASSERT_GE(corpus->size(), 5000u);
  corpus->resize(5000);
  // Pivots: the edge triples and corpus triples. Queries: the corpus
  // and every pivot, so each pivot also meets itself (equal terms).
  std::vector<Triple> pivots = EdgeTriples();
  for (size_t i = 0; i < corpus->size(); i += 500) {
    pivots.push_back((*corpus)[i]);
  }
  std::vector<Triple> queries = *corpus;
  queries.insert(queries.end(), pivots.begin(), pivots.end());

  for (SimilarityMeasure measure :
       {SimilarityMeasure::kWuPalmer, SimilarityMeasure::kPath,
        SimilarityMeasure::kLeacockChodorow, SimilarityMeasure::kResnik,
        SimilarityMeasure::kLin}) {
    for (StringDistanceKind kind : {StringDistanceKind::kNormalizedLevenshtein,
                                    StringDistanceKind::kJaroWinkler,
                                    StringDistanceKind::kBigramDice}) {
      SCOPED_TRACE(std::string(SimilarityMeasureName(measure)) + " / " +
                   std::to_string(static_cast<int>(kind)));
      ElementDistanceOptions element;
      element.concept_measure = measure;
      element.string_distance = kind;
      auto dist = TripleDistance::Make(&vocab_, {0.5, 0.3, 0.2}, element);
      ASSERT_TRUE(dist.ok());
      std::vector<PreparedTriple> prepared;
      std::vector<CompiledTriple> compiled;
      for (const Triple& p : pivots) {
        prepared.push_back(dist->Prepare(p));
        compiled.push_back(dist->Compile(prepared.back()));
      }
      size_t mismatches = 0;
      for (const Triple& q : queries) {
        const PreparedTriple pq = dist->Prepare(q);
        for (size_t i = 0; i < pivots.size(); ++i) {
          if (!SameBits((*dist)(pq, compiled[i]), (*dist)(pq, prepared[i]))) {
            ADD_FAILURE() << q.ToString() << " vs " << pivots[i].ToString();
            if (++mismatches == 5) return;
          }
        }
      }
    }
  }
}

TEST_F(TripleDistanceTest, CompileKeepsWhatEachTermNeeds) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  const std::vector<Triple> edges = EdgeTriples();
  const CompiledTriple resolved = dist->Compile(dist->Prepare(edges[1]));
  EXPECT_TRUE(resolved.subject.concept_row.empty());  // A literal.
  EXPECT_EQ(resolved.predicate.concept_row.size(), vocab_.size());
  const CompiledTriple unknown = dist->Compile(dist->Prepare(edges[4]));
  EXPECT_TRUE(unknown.predicate.concept_row.empty());  // Not in vocabulary.
}

// ---------------------------------------------------------------------
// Distance matrix

TEST_F(TripleDistanceTest, MatrixMatchesDirectComputation) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 2,
                                            .seed = 21});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  TripleDistanceFn fn = *dist;
  DistanceMatrix m(*triples, fn, /*threads=*/1);
  ASSERT_EQ(m.size(), triples->size());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.At(i, i), 0.0);
    for (size_t j = 0; j < m.size(); j += 3) {
      EXPECT_DOUBLE_EQ(m.At(i, j), fn((*triples)[i], (*triples)[j]));
      EXPECT_DOUBLE_EQ(m.At(i, j), m.At(j, i));
    }
  }
  EXPECT_GE(m.Max(), m.Mean());
}

TEST_F(TripleDistanceTest, ParallelMatrixEqualsSequential) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 2,
                                            .seed = 23});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  TripleDistanceFn fn = *dist;
  DistanceMatrix seq(*triples, fn, 1);
  DistanceMatrix par(*triples, fn, 4);
  for (size_t i = 0; i < seq.size(); ++i) {
    for (size_t j = 0; j < seq.size(); ++j) {
      EXPECT_DOUBLE_EQ(seq.At(i, j), par.At(i, j));
    }
  }
}

// ---------------------------------------------------------------------
// Concurrent first use. Reads of a taxonomy write nothing except the
// information-content table, built on first use under a lock; this
// test makes that first use concurrent (the suite runs under TSan).

TEST(DistanceConcurrencyTest, FreshVocabularyFirstUsedByFourThreads) {
  const Taxonomy reference_vocab = RequirementsVocabulary();
  RequirementsCorpusGenerator gen(&reference_vocab,
                                  {.num_documents = 3, .seed = 29});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  for (SimilarityMeasure m :
       {SimilarityMeasure::kWuPalmer, SimilarityMeasure::kResnik,
        SimilarityMeasure::kLin}) {
    SCOPED_TRACE(SimilarityMeasureName(m));
    const Taxonomy fresh = RequirementsVocabulary();
    auto serial = TripleDistance::Make(&reference_vocab, {},
                                       {.concept_measure = m});
    auto parallel = TripleDistance::Make(&fresh, {}, {.concept_measure = m});
    ASSERT_TRUE(serial.ok() && parallel.ok());
    DistanceMatrix got(*triples, *parallel, /*threads=*/4);
    DistanceMatrix want(*triples, *serial, /*threads=*/1);
    for (size_t i = 0; i < want.size(); ++i) {
      for (size_t j = i + 1; j < want.size(); ++j) {
        ASSERT_TRUE(SameBits(got.At(i, j), want.At(i, j))) << i << ' ' << j;
      }
    }
  }
}

TEST(DistanceMatrixTest, DegenerateSizes) {
  Taxonomy vocab = RequirementsVocabulary();
  auto dist = TripleDistance::Make(&vocab);
  ASSERT_TRUE(dist.ok());
  TripleDistanceFn fn = *dist;
  DistanceMatrix empty({}, fn);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  std::vector<Triple> one = {Triple(Term::Literal("a"), Term::Concept("b"),
                                    Term::Concept("c"))};
  DistanceMatrix single(one, fn);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single.At(0, 0), 0.0);
}

// ---------------------------------------------------------------------
// Metric audit

TEST_F(TripleDistanceTest, AuditFindsNoBasicViolations) {
  auto dist = TripleDistance::Make(&vocab_);
  ASSERT_TRUE(dist.ok());
  RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 4,
                                            .seed = 31});
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  MetricAuditReport report = AuditMetric(*triples, *dist, 20000);
  EXPECT_EQ(report.identity_violations, 0u);
  EXPECT_EQ(report.symmetry_violations, 0u);
  EXPECT_EQ(report.range_violations, 0u);
  // The taxonomy-based distance may violate the triangle inequality in
  // rare corners; the excess must stay small (FastMap clamps it).
  EXPECT_LE(report.worst_triangle_excess, 0.75);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MetricAuditTest, DetectsAsymmetricDistance) {
  std::vector<Triple> triples = {
      Triple(Term::Literal("a"), Term::Concept("p"), Term::Concept("x")),
      Triple(Term::Literal("b"), Term::Concept("p"), Term::Concept("x")),
  };
  // A deliberately broken distance: asymmetric and out of range.
  TripleDistanceFn broken = [](const Triple& a, const Triple& b) {
    if (a.subject.value() < b.subject.value()) return 2.0;
    if (a.subject.value() > b.subject.value()) return 0.25;
    return 0.0;
  };
  MetricAuditReport report = AuditMetric(triples, broken, 500);
  EXPECT_GT(report.symmetry_violations, 0u);
  EXPECT_GT(report.range_violations, 0u);
  EXPECT_FALSE(report.IsMetricOnSample());
}

TEST(MetricAuditTest, EmptyInputIsTrivially) {
  TripleDistanceFn zero = [](const Triple&, const Triple&) { return 0.0; };
  MetricAuditReport report = AuditMetric({}, zero, 100);
  EXPECT_EQ(report.points, 0u);
  EXPECT_TRUE(report.IsMetricOnSample());
}

}  // namespace
}  // namespace semtree
