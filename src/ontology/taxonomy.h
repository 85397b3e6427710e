// Copyright 2026 The SemTree Authors
//
// An IS-A concept taxonomy (directed acyclic graph) with synonym and
// antonym relations. This is the "domain specific and/or general
// vocabulary" substrate the paper's semantic distance relies on
// (§III-A), and the source of the "antinomy relationship" used by the
// inconsistency case study (§II).

#ifndef SEMTREE_ONTOLOGY_TAXONOMY_H_
#define SEMTREE_ONTOLOGY_TAXONOMY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"

namespace semtree {

/// Dense handle for a concept inside a Taxonomy.
using ConceptId = uint32_t;

/// Sentinel for "no concept".
inline constexpr ConceptId kInvalidConcept =
    std::numeric_limits<ConceptId>::max();

/// A multiple-inheritance IS-A taxonomy rooted at a single top concept
/// ("entity"). Concepts are identified by unique lowercase names; aliases
/// (synonyms) resolve to their canonical concept. Antonymy is a symmetric
/// relation between concepts (the paper's "antinomy").
///
/// Every concept keeps its ancestor closure: an id-sorted array of
/// (ancestor, fewest up-edges to it), itself included. Mutations keep
/// the arrays current, so each structure query below is a lookup or a
/// merge of two short arrays; none walks the graph, and none but
/// Ancestors() allocates (DESIGN.md §13).
///
/// Not thread-safe for mutation; concurrent reads are safe once built,
/// including the first reads after a mutation.
class Taxonomy {
 public:
  /// Creates a taxonomy containing only the root concept.
  explicit Taxonomy(std::string root_name = "entity");

  ConceptId root() const { return 0; }
  const std::string& root_name() const { return nodes_[0].name; }

  /// Number of concepts (aliases excluded).
  size_t size() const { return nodes_.size(); }

  /// Counts successful mutations: every mutator below bumps it, so a
  /// result computed from this taxonomy is current while it holds.
  uint64_t generation() const { return generation_; }

  // ---------------------------------------------------------------------
  // Construction

  /// Adds a concept below the given parents (root if `parents` empty).
  /// Fails with AlreadyExists if the name (or an alias with that name)
  /// is taken, NotFound if a parent is unknown.
  Result<ConceptId> AddConcept(std::string_view name,
                               const std::vector<std::string>& parents = {});

  /// Adds a concept below parent ids.
  Result<ConceptId> AddConceptUnder(std::string_view name,
                                    const std::vector<ConceptId>& parents);

  /// Adds an extra IS-A edge child -> parent. Fails with
  /// FailedPrecondition if the edge would create a cycle.
  Status AddParent(ConceptId child, ConceptId parent);

  /// Registers `alias` as a synonym resolving to `canonical`.
  Status AddSynonym(std::string_view alias, ConceptId canonical);

  /// Declares `a` and `b` antonyms (symmetric).
  Status AddAntonym(ConceptId a, ConceptId b);

  /// Accumulates observed corpus frequency for a concept; drives the
  /// information-content (Resnik/Lin) measures.
  Status AddFrequency(ConceptId c, uint64_t count);

  // ---------------------------------------------------------------------
  // Lookup

  /// Resolves a name or alias to a ConceptId.
  Result<ConceptId> Find(std::string_view name) const;
  bool Contains(std::string_view name) const;

  const std::string& name(ConceptId c) const { return nodes_[c].name; }
  const std::vector<ConceptId>& parents(ConceptId c) const {
    return nodes_[c].parents;
  }
  const std::vector<ConceptId>& children(ConceptId c) const {
    return nodes_[c].children;
  }
  uint64_t frequency(ConceptId c) const { return nodes_[c].frequency; }

  /// All concept names in id order (stable across runs).
  std::vector<std::string> ConceptNames() const;

  /// All (alias, canonical) synonym pairs.
  std::vector<std::pair<std::string, ConceptId>> Synonyms() const;

  /// All antonym pairs with a < b.
  std::vector<std::pair<ConceptId, ConceptId>> AntonymPairs() const;

  // ---------------------------------------------------------------------
  // Structure queries

  /// Depth of `c`: length of the shortest IS-A chain to the root
  /// (root has depth 0).
  size_t Depth(ConceptId c) const;

  /// Largest depth over all concepts.
  size_t MaxDepth() const;

  /// True if `ancestor` lies on some IS-A chain above `descendant`
  /// (reflexive: a concept is its own ancestor).
  bool IsAncestor(ConceptId ancestor, ConceptId descendant) const;

  /// All ancestors of `c`, inclusive of `c` itself, in id order (so the
  /// root comes first).
  std::vector<ConceptId> Ancestors(ConceptId c) const;

  /// The deepest common ancestor of `a` and `b` (the "least common
  /// subsumer"), ties broken toward the smallest id. Always exists
  /// because the taxonomy is rooted.
  ConceptId LowestCommonSubsumer(ConceptId a, ConceptId b) const;

  /// Number of IS-A edges on the shortest path between `a` and `b`
  /// going through their least common subsumer.
  size_t ShortestPathEdges(ConceptId a, ConceptId b) const;

  /// Minimum number of upward IS-A edges from `descendant` to
  /// `ancestor`; SIZE_MAX when `ancestor` is not an ancestor.
  size_t UpEdges(ConceptId descendant, ConceptId ancestor) const;

  /// Information content -log p(c), where p is the corpus probability
  /// mass of the concept's subtree. With no recorded frequencies every
  /// concept counts once (uniform fallback). IC(root) == 0.
  double InformationContent(ConceptId c) const;

  /// Largest information content over all concepts.
  double MaxInformationContent() const;

  // ---------------------------------------------------------------------
  // Antonymy

  bool AreAntonyms(ConceptId a, ConceptId b) const;
  std::vector<ConceptId> AntonymsOf(ConceptId c) const;

  /// Convenience: antonyms of a concept looked up by name; empty vector
  /// if the name is unknown.
  std::vector<std::string> AntonymNamesOf(std::string_view name) const;

  /// Validates internal invariants (acyclicity, bidirectional edges,
  /// alias targets). Intended for tests and after file loads.
  Status Validate() const;

 private:
  /// One entry of a concept's ancestor closure.
  struct Ancestor {
    ConceptId id;
    uint32_t up_edges;  ///< Fewest IS-A edges from the concept to `id`.
  };

  struct Node {
    std::string name;
    std::vector<ConceptId> parents;
    std::vector<ConceptId> children;
    std::vector<ConceptId> antonyms;
    uint64_t frequency = 0;
    std::vector<Ancestor> ancestors;  ///< Sorted by id; includes self.
  };

  /// Information content, built on first use after a mutation. The
  /// first readers may arrive together, so the build runs under `mu`
  /// and publishes with a release store of `valid`; a reader that sees
  /// `valid` (acquire) reads `values`/`max` without the lock. Mutators
  /// only clear `valid`: mutation never runs concurrently with reads.
  /// A copy starts invalid and rebuilds on its own first use.
  struct InformationContentCache {
    InformationContentCache() = default;
    InformationContentCache(const InformationContentCache&) {}
    InformationContentCache& operator=(const InformationContentCache&) {
      valid.store(false, std::memory_order_relaxed);
      return *this;
    }

    Mutex mu;
    std::atomic<bool> valid{false};
    std::vector<double> values;  // Written under `mu` while !valid.
    double max = 0.0;
  };

  /// Adds `above`'s entries, `edges` further away, to `closure`,
  /// keeping id order and the fewest edges per id.
  static void MergeAncestors(std::vector<Ancestor>* closure,
                             const std::vector<Ancestor>& above,
                             uint32_t edges);

  /// The closure of a concept from its parents' closures: self at 0,
  /// every parent's ancestors one edge further, fewest edges kept.
  std::vector<Ancestor> ClosureFromParents(
      ConceptId c, const std::vector<ConceptId>& parents) const;

  /// The entry for `ancestor` in `descendant`'s closure (a binary
  /// search), or nullptr when `ancestor` is not an ancestor.
  const Ancestor* FindAncestor(ConceptId descendant,
                               ConceptId ancestor) const;

  /// Calls fn(entry in a's closure, entry in b's closure) for every
  /// common ancestor of `a` and `b`, in id order: one merge walk.
  template <typename Fn>
  void ForEachCommonAncestor(ConceptId a, ConceptId b, Fn fn) const;

  void EnsureInformationContent() const;
  bool WouldCreateCycle(ConceptId child, ConceptId parent) const;

  // Hashes names as string_views, so Find looks a view up without
  // copying it into a std::string first.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NameMap =
      std::unordered_map<std::string, ConceptId, NameHash, std::equal_to<>>;

  std::vector<Node> nodes_;
  NameMap by_name_;
  NameMap aliases_;
  size_t max_depth_ = 0;
  uint64_t generation_ = 0;
  mutable InformationContentCache ic_;
};

}  // namespace semtree

#endif  // SEMTREE_ONTOLOGY_TAXONOMY_H_
