// Copyright 2026 The SemTree Authors
//
// String distances used for the literal/constant case of the SemTree
// element distance (paper §III-A: "we can apply any distance function
// between strings, i.e. Levenshtein").

#ifndef SEMTREE_TEXT_STRING_DISTANCE_H_
#define SEMTREE_TEXT_STRING_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace semtree {

/// Classic Levenshtein edit distance (insert/delete/substitute, unit
/// costs). When the shorter string has at most 64 bytes it runs Myers'
/// bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyrö's global
/// edit-distance form: O(|a| + |b|) time, no allocation. Otherwise the
/// dynamic program below.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// The O(|a|*|b|) dynamic program with one O(min(|a|,|b|)) row: the
/// path of LevenshteinDistance for long strings, and the reference its
/// bit-parallel path is tested against.
size_t LevenshteinDistanceDp(std::string_view a, std::string_view b);

/// Levenshtein distance normalized to [0,1] by max(|a|,|b|);
/// 0 for two empty strings.
double NormalizedLevenshtein(std::string_view a, std::string_view b);

/// Damerau–Levenshtein (optimal string alignment variant): Levenshtein
/// plus transposition of adjacent characters.
size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b);

/// Jaro similarity in [0,1] (1 = equal).
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro–Winkler similarity in [0,1] with standard prefix scaling
/// (p = 0.1, prefix capped at 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// 1 - JaroWinklerSimilarity, in [0,1].
double JaroWinklerDistance(std::string_view a, std::string_view b);

/// Length of the longest common subsequence.
size_t LongestCommonSubsequence(std::string_view a, std::string_view b);

/// Dice coefficient over character bigrams, in [0,1] (1 = identical
/// bigram multisets). Strings shorter than 2 fall back to equality.
double BigramDiceSimilarity(std::string_view a, std::string_view b);

/// The normalized string distances selectable in SemTree configuration.
enum class StringDistanceKind {
  kNormalizedLevenshtein,
  kJaroWinkler,
  kBigramDice,
};

/// Dispatches to the chosen normalized distance; result in [0,1].
double StringDistance(StringDistanceKind kind, std::string_view a,
                      std::string_view b);

}  // namespace semtree

#endif  // SEMTREE_TEXT_STRING_DISTANCE_H_
