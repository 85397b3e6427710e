// Copyright 2026 The SemTree Authors
//
// Unit + property tests for src/text: string distances and tokenizer.

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "text/string_distance.h"
#include "text/tokenizer.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// Levenshtein

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("identical", "identical"), 0u);
  // A 64-byte shorter string fills the bit-parallel word.
  const std::string full(64, 'x');
  EXPECT_EQ(LevenshteinDistance(full, full), 0u);
  EXPECT_EQ(LevenshteinDistance(full, ""), 64u);
  EXPECT_EQ(LevenshteinDistance(full, full + "yy"), 2u);
  EXPECT_EQ(LevenshteinDistance("\xff" + full.substr(1), full), 1u);
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);   // substitute
  EXPECT_EQ(LevenshteinDistance("abc", "abcd"), 1u);  // insert
  EXPECT_EQ(LevenshteinDistance("abc", "ab"), 1u);    // delete
}

TEST(NormalizedLevenshteinTest, RangeAndEdges) {
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "xyz"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("ab", ""), 1.0);
  double d = NormalizedLevenshtein("OBSW001", "OBSW002");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.3);
}

TEST(DamerauTest, TranspositionCountsOnce) {
  EXPECT_EQ(LevenshteinDistance("ab", "ba"), 2u);
  EXPECT_EQ(DamerauLevenshteinDistance("ab", "ba"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("abcdef", "abcdfe"), 1u);
  EXPECT_EQ(DamerauLevenshteinDistance("ca", "abc"), 3u);  // OSA variant
}

TEST(DamerauTest, MatchesLevenshteinWithoutTranspositions) {
  EXPECT_EQ(DamerauLevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(DamerauLevenshteinDistance("", "xyz"), 3u);
}

// ---------------------------------------------------------------------
// Jaro / Jaro–Winkler

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822222, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("MARTHA", "MARHTA");
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.961111, 1e-5);
}

TEST(JaroWinklerTest, DistanceComplementsSimilarity) {
  EXPECT_DOUBLE_EQ(JaroWinklerDistance("abc", "abc"), 0.0);
  double s = JaroWinklerSimilarity("node", "note");
  EXPECT_DOUBLE_EQ(JaroWinklerDistance("node", "note"), 1.0 - s);
}

// ---------------------------------------------------------------------
// LCS / Dice

TEST(LcsTest, KnownValues) {
  EXPECT_EQ(LongestCommonSubsequence("", "x"), 0u);
  EXPECT_EQ(LongestCommonSubsequence("abcde", "ace"), 3u);
  EXPECT_EQ(LongestCommonSubsequence("abc", "abc"), 3u);
  EXPECT_EQ(LongestCommonSubsequence("abc", "def"), 0u);
}

TEST(DiceTest, BigramOverlap) {
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("night", "night"), 1.0);
  EXPECT_NEAR(BigramDiceSimilarity("night", "nacht"), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("ab", "cd"), 0.0);
  // Short strings fall back to equality.
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(BigramDiceSimilarity("a", "b"), 0.0);
}

// ---------------------------------------------------------------------
// Bit-parallel Levenshtein against the dynamic program

// A random string of `length` bytes drawn from `size` byte values
// starting at `first`.
std::string RandomBytes(Rng* rng, size_t length, int first, int size) {
  std::string s(length, '\0');
  for (char& c : s) {
    c = static_cast<char>(first + static_cast<int>(rng->Uniform(size)));
  }
  return s;
}

// `s` after a few random substitutions, insertions and deletions, so
// that pairs with small distances are common.
std::string Mutate(Rng* rng, std::string s, int first, int size) {
  const size_t edits = rng->Uniform(6);
  for (size_t e = 0; e < edits; ++e) {
    const char c =
        static_cast<char>(first + static_cast<int>(rng->Uniform(size)));
    const size_t at = rng->Uniform(s.size() + 1);
    switch (rng->Uniform(3)) {
      case 0:
        if (at < s.size()) s[at] = c;
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        if (at < s.size()) s.erase(at, 1);
        break;
    }
  }
  return s;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(LevenshteinTest, BitParallelEqualsTheDynamicProgram) {
  // Lengths 0-130 on both sides of the 64-byte cutoff, a quarter of
  // them exactly 63, 64 or 65; alphabets of 2 and 26 letters and of
  // all 256 byte values, so bytes >= 0x80 index the mask table too.
  struct Alphabet {
    int first;
    int size;
  };
  const Alphabet alphabets[] = {{'a', 2}, {'a', 26}, {0, 256}};
  Rng rng(2027);
  auto length = [&rng]() -> size_t {
    return rng.Uniform(4) == 0 ? 63 + rng.Uniform(3) : rng.Uniform(131);
  };
  size_t pairs = 0;
  for (const Alphabet& abc : alphabets) {
    SCOPED_TRACE(abc.size);
    for (int i = 0; i < 34000; ++i, ++pairs) {
      const std::string a = RandomBytes(&rng, length(), abc.first, abc.size);
      const std::string b =
          i % 2 == 0 ? RandomBytes(&rng, length(), abc.first, abc.size)
                     : Mutate(&rng, a, abc.first, abc.size);
      const size_t want = LevenshteinDistanceDp(a, b);
      ASSERT_EQ(LevenshteinDistance(a, b), want) << a.size() << "/" << b.size();
      const size_t longest = std::max(a.size(), b.size());
      const double normalized =
          longest == 0
              ? 0.0
              : static_cast<double>(want) / static_cast<double>(longest);
      ASSERT_TRUE(SameBits(NormalizedLevenshtein(a, b), normalized));
    }
  }
  EXPECT_GE(pairs, 100000u);
}

// ---------------------------------------------------------------------
// Property sweep over all dispatchable distances

class StringDistanceProperty
    : public ::testing::TestWithParam<StringDistanceKind> {};

TEST_P(StringDistanceProperty, IdentitySymmetryRange) {
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string a = rng.Identifier(rng.Uniform(12));
    std::string b = rng.Identifier(rng.Uniform(12));
    double dab = StringDistance(GetParam(), a, b);
    double dba = StringDistance(GetParam(), b, a);
    EXPECT_DOUBLE_EQ(StringDistance(GetParam(), a, a), 0.0) << a;
    EXPECT_DOUBLE_EQ(dab, dba) << a << " / " << b;
    EXPECT_GE(dab, 0.0);
    EXPECT_LE(dab, 1.0);
  }
}

TEST_P(StringDistanceProperty, DistinctStringsPositive) {
  EXPECT_GT(StringDistance(GetParam(), "alpha", "omega"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StringDistanceProperty,
    ::testing::Values(StringDistanceKind::kNormalizedLevenshtein,
                      StringDistanceKind::kJaroWinkler,
                      StringDistanceKind::kBigramDice));

TEST(LevenshteinPropertyTest, TriangleInequalityOnSamples) {
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    std::string a = rng.Identifier(1 + rng.Uniform(8));
    std::string b = rng.Identifier(1 + rng.Uniform(8));
    std::string c = rng.Identifier(1 + rng.Uniform(8));
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
  }
}

// ---------------------------------------------------------------------
// Tokenizer

TEST(TokenizerTest, SplitsSentencesOnTerminators) {
  auto s = SplitSentences("First one. Second one! Third one? ");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "First one");
  EXPECT_EQ(s[1], "Second one");
  EXPECT_EQ(s[2], "Third one");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   \n ").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, LowercasesAndDropsPunctuation) {
  auto t = Tokenize("The OBSW001 component, shall (accept)!");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t[0], "the");
  EXPECT_EQ(t[1], "obsw001");
  EXPECT_EQ(t[4], "accept");
}

TEST(TokenizerTest, PreservesHyphensAndUnderscoresInWords) {
  auto t = Tokenize("acquire the pre-launch_phase input");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[2], "pre-launch_phase");
}

TEST(TokenizerTest, PreservingCaseVariant) {
  auto t = TokenizePreservingCase("The OBSW001 shall");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "OBSW001");
}

}  // namespace
}  // namespace semtree
