// Copyright 2026 The SemTree Authors

#include "text/string_distance.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace semtree {

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string.
  if (b.empty()) return a.size();
  if (b.size() > 64) return LevenshteinDistanceDp(a, b);
  // Hyyrö's bit-parallel global edit distance with b as the pattern of
  // m <= 64 bytes: masks[c] has bit i set when b[i] == c. The kernel
  // reads only the entries of a's bytes, so clearing those and b's,
  // then setting b's positions, replaces clearing all 256.
  uint64_t masks[256];
  for (char ch : a) masks[static_cast<unsigned char>(ch)] = 0;
  for (char ch : b) masks[static_cast<unsigned char>(ch)] = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    masks[static_cast<unsigned char>(b[i])] |= uint64_t{1} << i;
  }
  // Bit i of `vp` (`vn`) is set when row i + 1 of the dynamic program's
  // current column is one more (one less) than row i; the bits above
  // m - 1, which carries reach, are never read.
  const size_t last = b.size() - 1;  // A shift of at most 63.
  uint64_t vp = ~uint64_t{0};  // Column 0 is 0, 1, ..., m.
  uint64_t vn = 0;
  size_t score = b.size();  // Row m of the current column.
  for (char ch : a) {
    const uint64_t eq = masks[static_cast<unsigned char>(ch)];
    const uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    // Row m's horizontal delta, added without a branch: the branch
    // form mispredicted enough to make Embed about 1.5x slower.
    score += (hp >> last) & 1;
    score -= (hn >> last) & 1;
    // Row 0 counts a's bytes, so it gains one every column: a +1
    // horizontal delta enters at the bottom.
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return score;
}

size_t LevenshteinDistanceDp(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string.
  if (b.empty()) return a.size();
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // row[j-1] from the previous row.
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

double NormalizedLevenshtein(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  return static_cast<double>(LevenshteinDistance(a, b)) /
         static_cast<double>(longest);
}

size_t DamerauLevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Three rolling rows: i-2, i-1, i.
  std::vector<size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t window =
      std::max<size_t>(1, std::max(n, m) / 2) - 1;
  std::vector<bool> a_matched(n, false), b_matched(m, false);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t lo = (i > window) ? i - window : 0;
    size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double mm = static_cast<double>(matches);
  return (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t cap = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < cap && a[prefix] == b[prefix]) ++prefix;
  constexpr double kScaling = 0.1;
  return jaro + static_cast<double>(prefix) * kScaling * (1.0 - jaro);
}

double JaroWinklerDistance(std::string_view a, std::string_view b) {
  return 1.0 - JaroWinklerSimilarity(a, b);
}

size_t LongestCommonSubsequence(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() < b.size()) std::swap(a, b);
  std::vector<size_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      cur[j] = (a[i - 1] == b[j - 1]) ? prev[j - 1] + 1
                                      : std::max(prev[j], cur[j - 1]);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

double BigramDiceSimilarity(std::string_view a, std::string_view b) {
  if (a.size() < 2 || b.size() < 2) return a == b ? 1.0 : 0.0;
  std::unordered_map<uint16_t, int> bigrams;
  auto key = [](char c1, char c2) {
    return static_cast<uint16_t>((static_cast<uint8_t>(c1) << 8) |
                                 static_cast<uint8_t>(c2));
  };
  for (size_t i = 0; i + 1 < a.size(); ++i) ++bigrams[key(a[i], a[i + 1])];
  size_t overlap = 0;
  for (size_t i = 0; i + 1 < b.size(); ++i) {
    auto it = bigrams.find(key(b[i], b[i + 1]));
    if (it != bigrams.end() && it->second > 0) {
      --it->second;
      ++overlap;
    }
  }
  double total = static_cast<double>((a.size() - 1) + (b.size() - 1));
  return 2.0 * static_cast<double>(overlap) / total;
}

double StringDistance(StringDistanceKind kind, std::string_view a,
                      std::string_view b) {
  switch (kind) {
    case StringDistanceKind::kNormalizedLevenshtein:
      return NormalizedLevenshtein(a, b);
    case StringDistanceKind::kJaroWinkler:
      return JaroWinklerDistance(a, b);
    case StringDistanceKind::kBigramDice:
      return 1.0 - BigramDiceSimilarity(a, b);
  }
  return 1.0;
}

}  // namespace semtree
