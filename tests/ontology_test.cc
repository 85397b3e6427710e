// Copyright 2026 The SemTree Authors
//
// Tests for src/ontology: taxonomy structure, similarity measures,
// vocabulary IO, the built-in vocabularies, and the ancestor-closure
// arrays checked against a breadth-first reference on every concept
// pair.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "distance/element_distance.h"
#include "ontology/requirements_vocabulary.h"
#include "ontology/similarity.h"
#include "ontology/taxonomy.h"
#include "ontology/vocabulary_io.h"
#include "random_taxonomy.h"

namespace semtree {
namespace {

Taxonomy SmallTaxonomy() {
  // entity -> animal -> {mammal -> {dog, cat}, bird -> eagle}
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("animal").ok());
  EXPECT_TRUE(tax.AddConcept("mammal", {"animal"}).ok());
  EXPECT_TRUE(tax.AddConcept("bird", {"animal"}).ok());
  EXPECT_TRUE(tax.AddConcept("dog", {"mammal"}).ok());
  EXPECT_TRUE(tax.AddConcept("cat", {"mammal"}).ok());
  EXPECT_TRUE(tax.AddConcept("eagle", {"bird"}).ok());
  return tax;
}

ConceptId Id(const Taxonomy& tax, const std::string& name) {
  auto r = tax.Find(name);
  EXPECT_TRUE(r.ok()) << name;
  return r.ok() ? *r : kInvalidConcept;
}

// ---------------------------------------------------------------------
// Structure

TEST(TaxonomyTest, RootOnlyAtConstruction) {
  Taxonomy tax;
  EXPECT_EQ(tax.size(), 1u);
  EXPECT_EQ(tax.name(tax.root()), "entity");
  EXPECT_EQ(tax.Depth(tax.root()), 0u);
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, AddConceptDefaultsToRootParent) {
  Taxonomy tax;
  auto id = tax.AddConcept("thing");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(tax.parents(*id).size(), 1u);
  EXPECT_EQ(tax.parents(*id)[0], tax.root());
  EXPECT_EQ(tax.Depth(*id), 1u);
}

TEST(TaxonomyTest, DuplicateNameRejected) {
  Taxonomy tax;
  ASSERT_TRUE(tax.AddConcept("x").ok());
  EXPECT_TRUE(tax.AddConcept("x").status().IsAlreadyExists());
}

TEST(TaxonomyTest, UnknownParentRejected) {
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("x", {"ghost"}).status().IsNotFound());
}

TEST(TaxonomyTest, EmptyNameRejected) {
  Taxonomy tax;
  EXPECT_TRUE(tax.AddConcept("").status().IsInvalidArgument());
}

TEST(TaxonomyTest, DepthsFollowShortestChain) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.Depth(Id(tax, "animal")), 1u);
  EXPECT_EQ(tax.Depth(Id(tax, "mammal")), 2u);
  EXPECT_EQ(tax.Depth(Id(tax, "dog")), 3u);
  EXPECT_EQ(tax.MaxDepth(), 3u);
}

TEST(TaxonomyTest, MultipleInheritanceShortensDepth) {
  Taxonomy tax = SmallTaxonomy();
  // Give "dog" a second parent directly under the root.
  ASSERT_TRUE(tax.AddConcept("pet").ok());
  ASSERT_TRUE(tax.AddParent(Id(tax, "dog"), Id(tax, "pet")).ok());
  EXPECT_EQ(tax.Depth(Id(tax, "dog")), 2u);  // entity->pet->dog
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, CycleRejected) {
  Taxonomy tax = SmallTaxonomy();
  // animal cannot become a child of dog.
  Status st = tax.AddParent(Id(tax, "animal"), Id(tax, "dog"));
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_TRUE(tax.Validate().ok());
}

TEST(TaxonomyTest, RootCannotGainParent) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_TRUE(tax.AddParent(tax.root(), Id(tax, "animal"))
                  .IsInvalidArgument());
}

TEST(TaxonomyTest, IsAncestorReflexiveAndTransitive) {
  Taxonomy tax = SmallTaxonomy();
  ConceptId dog = Id(tax, "dog");
  EXPECT_TRUE(tax.IsAncestor(dog, dog));
  EXPECT_TRUE(tax.IsAncestor(Id(tax, "mammal"), dog));
  EXPECT_TRUE(tax.IsAncestor(Id(tax, "animal"), dog));
  EXPECT_TRUE(tax.IsAncestor(tax.root(), dog));
  EXPECT_FALSE(tax.IsAncestor(Id(tax, "bird"), dog));
  EXPECT_FALSE(tax.IsAncestor(dog, Id(tax, "mammal")));
}

TEST(TaxonomyTest, AncestorsInclusive) {
  Taxonomy tax = SmallTaxonomy();
  auto ancestors = tax.Ancestors(Id(tax, "dog"));
  EXPECT_EQ(ancestors.size(), 4u);  // dog, mammal, animal, entity
}

TEST(TaxonomyTest, LowestCommonSubsumer) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "cat")),
            Id(tax, "mammal"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "eagle")),
            Id(tax, "animal"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "dog")),
            Id(tax, "dog"));
  EXPECT_EQ(tax.LowestCommonSubsumer(Id(tax, "dog"), Id(tax, "mammal")),
            Id(tax, "mammal"));
}

TEST(TaxonomyTest, ShortestPathEdges) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "dog")), 0u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "cat")), 2u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "eagle")), 4u);
  EXPECT_EQ(tax.ShortestPathEdges(Id(tax, "dog"), Id(tax, "mammal")), 1u);
}

TEST(TaxonomyTest, SynonymsResolve) {
  Taxonomy tax = SmallTaxonomy();
  ASSERT_TRUE(tax.AddSynonym("hound", Id(tax, "dog")).ok());
  EXPECT_TRUE(tax.Contains("hound"));
  EXPECT_EQ(Id(tax, "hound"), Id(tax, "dog"));
  // A synonym cannot shadow an existing name.
  EXPECT_TRUE(tax.AddSynonym("cat", Id(tax, "dog")).IsAlreadyExists());
  EXPECT_TRUE(tax.AddSynonym("hound", Id(tax, "cat")).IsAlreadyExists());
}

TEST(TaxonomyTest, AntonymsSymmetric) {
  Taxonomy tax = SmallTaxonomy();
  ConceptId dog = Id(tax, "dog");
  ConceptId cat = Id(tax, "cat");
  ASSERT_TRUE(tax.AddAntonym(dog, cat).ok());
  EXPECT_TRUE(tax.AreAntonyms(dog, cat));
  EXPECT_TRUE(tax.AreAntonyms(cat, dog));
  EXPECT_FALSE(tax.AreAntonyms(dog, Id(tax, "eagle")));
  EXPECT_TRUE(tax.AddAntonym(dog, cat).IsAlreadyExists());
  EXPECT_TRUE(tax.AddAntonym(dog, dog).IsInvalidArgument());
  auto names = tax.AntonymNamesOf("dog");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "cat");
}

TEST(TaxonomyTest, InformationContentMonotoneDown) {
  Taxonomy tax = SmallTaxonomy();
  // Uniform fallback: deeper concepts are rarer, so IC grows downward.
  EXPECT_DOUBLE_EQ(tax.InformationContent(tax.root()), 0.0);
  EXPECT_LT(tax.InformationContent(Id(tax, "animal")),
            tax.InformationContent(Id(tax, "mammal")));
  EXPECT_LT(tax.InformationContent(Id(tax, "mammal")),
            tax.InformationContent(Id(tax, "dog")) + 1e-12);
  EXPECT_GT(tax.MaxInformationContent(), 0.0);
}

TEST(TaxonomyTest, FrequenciesShiftInformationContent) {
  Taxonomy tax = SmallTaxonomy();
  ASSERT_TRUE(tax.AddFrequency(Id(tax, "dog"), 1000).ok());
  ASSERT_TRUE(tax.AddFrequency(Id(tax, "eagle"), 10).ok());
  EXPECT_LT(tax.InformationContent(Id(tax, "dog")),
            tax.InformationContent(Id(tax, "eagle")));
}

// ---------------------------------------------------------------------
// Similarity measures

class MeasureProperty
    : public ::testing::TestWithParam<SimilarityMeasure> {};

TEST_P(MeasureProperty, RangeIdentityAndSymmetry) {
  Taxonomy tax = MiniWordNet();
  std::vector<std::string> names = {"dog",   "cat",   "car",
                                    "eagle", "pilot", "entity"};
  for (const auto& a : names) {
    for (const auto& b : names) {
      double sab = ConceptSimilarity(GetParam(), tax, Id(tax, a), Id(tax, b));
      double sba = ConceptSimilarity(GetParam(), tax, Id(tax, b), Id(tax, a));
      EXPECT_DOUBLE_EQ(sab, sba) << a << "/" << b;
      EXPECT_GE(sab, 0.0);
      EXPECT_LE(sab, 1.0);
      if (a == b) {
        EXPECT_DOUBLE_EQ(sab, 1.0) << a;
      }
    }
  }
}

TEST_P(MeasureProperty, SiblingsCloserThanCrossFamily) {
  Taxonomy tax = MiniWordNet();
  double siblings =
      ConceptSimilarity(GetParam(), tax, Id(tax, "dog"), Id(tax, "cat"));
  double cross =
      ConceptSimilarity(GetParam(), tax, Id(tax, "dog"), Id(tax, "car"));
  EXPECT_GT(siblings, cross);
}

TEST_P(MeasureProperty, DistanceComplementsSimilarity) {
  Taxonomy tax = MiniWordNet();
  ConceptId a = Id(tax, "dog");
  ConceptId b = Id(tax, "eagle");
  EXPECT_DOUBLE_EQ(ConceptDistance(GetParam(), tax, a, b),
                   1.0 - ConceptSimilarity(GetParam(), tax, a, b));
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasureProperty,
                         ::testing::Values(SimilarityMeasure::kWuPalmer,
                                           SimilarityMeasure::kPath,
                                           SimilarityMeasure::kLeacockChodorow,
                                           SimilarityMeasure::kResnik,
                                           SimilarityMeasure::kLin));

TEST(WuPalmerTest, ClassicFormula) {
  Taxonomy tax = SmallTaxonomy();
  // dog: depth 3, cat: depth 3, lcs mammal: depth 2, counted from 1:
  // 2*3 / (4+4) = 0.75.
  EXPECT_DOUBLE_EQ(
      WuPalmerSimilarity(tax, Id(tax, "dog"), Id(tax, "cat")), 0.75);
  // dog vs eagle (both depth 3): lcs animal (depth 1 -> 2):
  // 2*2/(4+4) = 0.5.
  EXPECT_NEAR(WuPalmerSimilarity(tax, Id(tax, "dog"), Id(tax, "eagle")),
              0.5, 1e-12);
}

TEST(PathSimilarityTest, InversePathLength) {
  Taxonomy tax = SmallTaxonomy();
  EXPECT_DOUBLE_EQ(PathSimilarity(tax, Id(tax, "dog"), Id(tax, "cat")),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(PathSimilarity(tax, Id(tax, "dog"), Id(tax, "dog")),
                   1.0);
}

TEST(SimilarityMeasureNameTest, AllNamed) {
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kWuPalmer),
               "wu-palmer");
  EXPECT_STREQ(SimilarityMeasureName(SimilarityMeasure::kLin), "lin");
}

// ---------------------------------------------------------------------
// Vocabulary IO

TEST(VocabularyIoTest, ParseMinimal) {
  auto tax = ParseVocabulary(R"(
# comment
concept animal
concept dog animal
concept cat animal
synonym hound dog
antonym dog cat
freq dog 10
)");
  ASSERT_TRUE(tax.ok()) << tax.status().ToString();
  EXPECT_EQ(tax->size(), 4u);
  EXPECT_EQ(Id(*tax, "hound"), Id(*tax, "dog"));
  EXPECT_TRUE(tax->AreAntonyms(Id(*tax, "dog"), Id(*tax, "cat")));
  EXPECT_EQ(tax->frequency(Id(*tax, "dog")), 10u);
}

TEST(VocabularyIoTest, CustomRootDirective) {
  auto tax = ParseVocabulary("root thing\nconcept gadget thing\n");
  ASSERT_TRUE(tax.ok());
  EXPECT_EQ(tax->root_name(), "thing");
  EXPECT_TRUE(tax->Contains("gadget"));
}

TEST(VocabularyIoTest, ErrorsNameTheLine) {
  auto bad = ParseVocabulary("concept a\nbogus x y\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);

  auto missing = ParseVocabulary("concept a ghost\n");
  ASSERT_FALSE(missing.ok());

  auto late_root = ParseVocabulary("concept a\nroot b\n");
  ASSERT_FALSE(late_root.ok());

  auto bad_freq = ParseVocabulary("concept a\nfreq a ten\n");
  ASSERT_FALSE(bad_freq.ok());
}

TEST(VocabularyIoTest, SerializeRoundTrip) {
  Taxonomy original = RequirementsVocabulary();
  std::string text = SerializeVocabulary(original);
  auto reparsed = ParseVocabulary(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->size(), original.size());
  EXPECT_EQ(reparsed->ConceptNames(), original.ConceptNames());
  EXPECT_EQ(reparsed->AntonymPairs(), original.AntonymPairs());
  EXPECT_EQ(reparsed->Synonyms().size(), original.Synonyms().size());
  // Structure-derived quantities must agree too.
  EXPECT_EQ(reparsed->MaxDepth(), original.MaxDepth());
  for (ConceptId c = 0; c < original.size(); ++c) {
    EXPECT_EQ(reparsed->Depth(c), original.Depth(c));
  }
}

TEST(VocabularyIoTest, FileRoundTrip) {
  Taxonomy original = MiniWordNet();
  std::string path = ::testing::TempDir() + "/vocab_roundtrip.txt";
  ASSERT_TRUE(SaveVocabularyFile(original, path).ok());
  auto loaded = LoadVocabularyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_TRUE(LoadVocabularyFile("/nonexistent/vocab.txt")
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------
// Ancestor closures against a brute-force breadth-first reference

constexpr size_t kUnreachable = std::numeric_limits<size_t>::max();

// Recomputes every structure query from the parent edges alone: one
// breadth-first walk up from each concept.
class BfsReference {
 public:
  explicit BfsReference(const Taxonomy& tax) : n_(tax.size()) {
    up_.assign(n_, std::vector<size_t>(n_, kUnreachable));
    for (ConceptId c = 0; c < n_; ++c) {
      std::deque<ConceptId> queue = {c};
      up_[c][c] = 0;
      while (!queue.empty()) {
        ConceptId cur = queue.front();
        queue.pop_front();
        for (ConceptId p : tax.parents(cur)) {
          if (up_[c][p] == kUnreachable) {
            up_[c][p] = up_[c][cur] + 1;
            queue.push_back(p);
          }
        }
      }
      max_depth_ = std::max(max_depth_, Depth(c));
    }
    // Information content, summed in the same order as the taxonomy
    // (concepts ascending) so the doubles must agree bit for bit.
    uint64_t total = 0;
    for (ConceptId c = 0; c < n_; ++c) total += tax.frequency(c);
    std::vector<double> mass(n_, 0.0);
    for (ConceptId c = 0; c < n_; ++c) {
      double own = total == 0 ? 1.0 : static_cast<double>(tax.frequency(c));
      if (own == 0.0) continue;
      for (ConceptId x = 0; x < n_; ++x) {
        if (up_[c][x] != kUnreachable) mass[x] += own;
      }
    }
    ic_.assign(n_, 0.0);
    for (ConceptId c = 0; c < n_; ++c) {
      double p = mass[0] > 0.0 ? mass[c] / mass[0] : 0.0;
      if (p <= 0.0) p = 0.5 / (mass[0] + 1.0);
      ic_[c] = -std::log(p);
      max_ic_ = std::max(max_ic_, ic_[c]);
    }
  }

  size_t Depth(ConceptId c) const { return up_[c][0]; }
  size_t MaxDepth() const { return max_depth_; }
  size_t UpEdges(ConceptId d, ConceptId a) const { return up_[d][a]; }
  bool IsAncestor(ConceptId a, ConceptId d) const {
    return up_[d][a] != kUnreachable;
  }
  std::vector<ConceptId> Ancestors(ConceptId c) const {
    std::vector<ConceptId> out;
    for (ConceptId x = 0; x < n_; ++x) {
      if (IsAncestor(x, c)) out.push_back(x);
    }
    return out;
  }
  // Deepest common ancestor; ties go to the smallest id.
  ConceptId Lcs(ConceptId a, ConceptId b) const {
    ConceptId best = 0;
    for (ConceptId x = 0; x < n_; ++x) {
      if (IsAncestor(x, a) && IsAncestor(x, b) && Depth(x) > Depth(best)) {
        best = x;
      }
    }
    return best;
  }
  size_t ShortestPath(ConceptId a, ConceptId b) const {
    size_t best = kUnreachable;
    for (ConceptId x = 0; x < n_; ++x) {
      if (IsAncestor(x, a) && IsAncestor(x, b)) {
        best = std::min(best, up_[a][x] + up_[b][x]);
      }
    }
    return best;
  }
  double Ic(ConceptId c) const { return ic_[c]; }
  double MaxIc() const { return max_ic_; }

  // The five measures, written out from their definitions in
  // ontology/similarity.h.
  double Similarity(SimilarityMeasure m, ConceptId a, ConceptId b) const {
    switch (m) {
      case SimilarityMeasure::kWuPalmer: {
        if (a == b) return 1.0;
        ConceptId lcs = Lcs(a, b);
        double n1 = static_cast<double>(UpEdges(a, lcs));
        double n2 = static_cast<double>(UpEdges(b, lcs));
        double n3 = static_cast<double>(Depth(lcs)) + 1.0;
        return 2.0 * n3 / (n1 + n2 + 2.0 * n3);
      }
      case SimilarityMeasure::kPath:
        return 1.0 / (1.0 + static_cast<double>(ShortestPath(a, b)));
      case SimilarityMeasure::kLeacockChodorow: {
        double depth = static_cast<double>(std::max<size_t>(max_depth_, 1));
        double len = static_cast<double>(ShortestPath(a, b)) + 1.0;
        double raw = -std::log(len / (2.0 * depth));
        double max_raw = -std::log(1.0 / (2.0 * depth));
        if (max_raw <= 0.0) return a == b ? 1.0 : 0.0;
        return std::clamp(raw / max_raw, 0.0, 1.0);
      }
      case SimilarityMeasure::kResnik:
        if (a == b) return 1.0;
        if (max_ic_ <= 0.0) return 0.0;
        return std::clamp(ic_[Lcs(a, b)] / max_ic_, 0.0, 1.0);
      case SimilarityMeasure::kLin: {
        if (a == b) return 1.0;
        double denom = ic_[a] + ic_[b];
        if (denom <= 0.0) return 1.0;
        return std::clamp(2.0 * ic_[Lcs(a, b)] / denom, 0.0, 1.0);
      }
    }
    return 0.0;
  }

 private:
  size_t n_;
  std::vector<std::vector<size_t>> up_;  // up_[c][x]: edges c -> x.
  size_t max_depth_ = 0;
  std::vector<double> ic_;
  double max_ic_ = 0.0;
};

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kWuPalmer, SimilarityMeasure::kPath,
    SimilarityMeasure::kLeacockChodorow, SimilarityMeasure::kResnik,
    SimilarityMeasure::kLin};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every structure query and every measure on every concept pair.
void ExpectMatchesReference(const Taxonomy& tax) {
  ASSERT_TRUE(tax.Validate().ok());
  const BfsReference ref(tax);
  ASSERT_EQ(tax.MaxDepth(), ref.MaxDepth());
  ASSERT_TRUE(SameBits(tax.MaxInformationContent(), ref.MaxIc()));
  for (ConceptId a = 0; a < tax.size(); ++a) {
    ASSERT_EQ(tax.Depth(a), ref.Depth(a)) << a;
    ASSERT_EQ(tax.Ancestors(a), ref.Ancestors(a)) << a;
    ASSERT_TRUE(SameBits(tax.InformationContent(a), ref.Ic(a))) << a;
    for (ConceptId b = 0; b < tax.size(); ++b) {
      ASSERT_EQ(tax.IsAncestor(a, b), ref.IsAncestor(a, b)) << a << ' ' << b;
      ASSERT_EQ(tax.UpEdges(a, b), ref.UpEdges(a, b)) << a << ' ' << b;
      ASSERT_EQ(tax.LowestCommonSubsumer(a, b), ref.Lcs(a, b))
          << a << ' ' << b;
      ASSERT_EQ(tax.ShortestPathEdges(a, b), ref.ShortestPath(a, b))
          << a << ' ' << b;
      for (SimilarityMeasure m : kAllMeasures) {
        ASSERT_TRUE(SameBits(ConceptSimilarity(m, tax, a, b),
                             ref.Similarity(m, a, b)))
            << SimilarityMeasureName(m) << ' ' << a << ' ' << b;
      }
    }
  }
}

TEST(AncestorClosureTest, RequirementsVocabularyMatchesReference) {
  ExpectMatchesReference(RequirementsVocabulary());
}

TEST(AncestorClosureTest, MiniWordNetMatchesReference) {
  ExpectMatchesReference(MiniWordNet());
}

TEST(AncestorClosureTest, RandomTaxonomiesMatchReference) {
  for (uint64_t seed : {11, 22, 33, 44, 55}) {
    SCOPED_TRACE(seed);
    ExpectMatchesReference(RandomTaxonomy(120, seed));
  }
}

TEST(AncestorClosureTest, ObservedFrequenciesMatchReference) {
  Taxonomy tax = RandomTaxonomy(120, 66);
  Rng rng(67);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        tax.AddFrequency(ConceptId(rng.Uniform(tax.size())), 1 + rng.Uniform(50))
            .ok());
  }
  ExpectMatchesReference(tax);
}

// Extra parents added after the child already has descendants: depths
// shrink below the child, and every descendant's closure must follow.
TEST(AncestorClosureTest, LateParentEdgesRebuildDescendants) {
  for (uint64_t seed : {11, 22, 33}) {
    SCOPED_TRACE(seed);
    Taxonomy tax = RandomTaxonomy(120, seed);
    std::vector<size_t> before(tax.size());
    for (ConceptId c = 0; c < tax.size(); ++c) before[c] = tax.Depth(c);
    Rng rng(seed + 7);
    size_t added = 0;
    for (int attempt = 0; added < 15 && attempt < 100000; ++attempt) {
      // A child with descendants under a new, shallower parent.
      ConceptId child = ConceptId(1 + rng.Uniform(tax.size() - 1));
      ConceptId parent = ConceptId(rng.Uniform(tax.size()));
      if (tax.children(child).empty() ||
          tax.Depth(parent) + 1 >= tax.Depth(child)) {
        continue;
      }
      Status st = tax.AddParent(child, parent);
      if (st.IsFailedPrecondition() || st.IsAlreadyExists()) continue;
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (++added % 5 == 0) ExpectMatchesReference(tax);
    }
    ASSERT_EQ(added, 15u);
    size_t shrunk = 0;
    for (ConceptId c = 0; c < tax.size(); ++c) {
      EXPECT_LE(tax.Depth(c), before[c]);
      shrunk += tax.Depth(c) < before[c] && tax.children(c).empty();
    }
    EXPECT_GT(shrunk, 0u) << "no leaf below a new edge got shallower";
  }
}

// A synonym resolves to its canonical concept, so a term spelled with
// either name is the same distance from every other concept.
TEST(AncestorClosureTest, SynonymsMeasureLikeTheirCanonicalConcept) {
  Taxonomy tax = RandomTaxonomy(120, 77);
  for (ConceptId c = 1; c < tax.size(); c += 9) {
    ASSERT_TRUE(tax.AddSynonym("alias" + std::to_string(c), c).ok());
  }
  const Taxonomy vocab = RequirementsVocabulary();
  for (const Taxonomy* t : {&std::as_const(tax), &vocab}) {
    ASSERT_FALSE(t->Synonyms().empty());
    const BfsReference ref(*t);
    for (SimilarityMeasure m : kAllMeasures) {
      ElementDistance element(t, {.concept_measure = m});
      for (const auto& [alias, canonical] : t->Synonyms()) {
        const Term by_alias = Term::Concept(alias);
        const Term by_name = Term::Concept(t->name(canonical));
        EXPECT_EQ(element(by_alias, by_name), 0.0) << alias;
        for (ConceptId other = 0; other < t->size(); other += 5) {
          const Term o = Term::Concept(t->name(other));
          const double d = element(by_name, o);
          EXPECT_TRUE(SameBits(element(by_alias, o), d))
              << alias << ' ' << t->name(other);
          EXPECT_TRUE(SameBits(d, 1.0 - ref.Similarity(m, canonical, other)))
              << alias << ' ' << t->name(other);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Built-in vocabularies

TEST(RequirementsVocabularyTest, ValidatesAndHasExpectedShape) {
  Taxonomy tax = RequirementsVocabulary();
  EXPECT_TRUE(tax.Validate().ok());
  EXPECT_GT(tax.size(), 80u);
  EXPECT_TRUE(tax.Contains("accept_cmd"));
  EXPECT_TRUE(tax.Contains("startup_cmd"));
  EXPECT_TRUE(tax.Contains("obsw_component"));
}

TEST(RequirementsVocabularyTest, PaperAntinomiesPresent) {
  Taxonomy tax = RequirementsVocabulary();
  // The motivating example: accept_cmd vs block_cmd (§II).
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "accept_cmd"), Id(tax, "block_cmd")));
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "send_msg"), Id(tax, "inhibit_msg")));
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "start_up"), Id(tax, "shut_down")));
  EXPECT_FALSE(
      tax.AreAntonyms(Id(tax, "accept_cmd"), Id(tax, "send_msg")));
}

TEST(RequirementsVocabularyTest, SynonymsResolve) {
  Taxonomy tax = RequirementsVocabulary();
  EXPECT_EQ(Id(tax, "reject_cmd"), Id(tax, "block_cmd"));
  EXPECT_EQ(Id(tax, "boot"), Id(tax, "start_up"));
}

TEST(RequirementsVocabularyTest, FunctionAndParameterEnumerations) {
  auto functions = RequirementsFunctionNames();
  auto parameters = RequirementsParameterNames();
  EXPECT_GT(functions.size(), 40u);
  EXPECT_GT(parameters.size(), 40u);
  EXPECT_TRUE(std::is_sorted(functions.begin(), functions.end()));
  Taxonomy tax = RequirementsVocabulary();
  for (const auto& name : functions) EXPECT_TRUE(tax.Contains(name));
}

TEST(RequirementsVocabularyTest, ParametersMatchFunctionFamily) {
  Taxonomy tax = RequirementsVocabulary();
  auto params = ParameterNamesForFunction(tax, "accept_cmd");
  ASSERT_FALSE(params.empty());
  ConceptId cmd_type = Id(tax, "command_type");
  for (const auto& p : params) {
    EXPECT_TRUE(tax.IsAncestor(cmd_type, Id(tax, p))) << p;
  }
  EXPECT_TRUE(ParameterNamesForFunction(tax, "no_such_function").empty());
}

TEST(MiniWordNetTest, ValidatesWithAntonymsAndSynonyms) {
  Taxonomy tax = MiniWordNet();
  EXPECT_TRUE(tax.Validate().ok());
  EXPECT_GT(tax.size(), 60u);
  EXPECT_TRUE(tax.AreAntonyms(Id(tax, "hot"), Id(tax, "cold")));
  EXPECT_EQ(Id(tax, "automobile"), Id(tax, "car"));
}

}  // namespace
}  // namespace semtree
