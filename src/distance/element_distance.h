// Copyright 2026 The SemTree Authors
//
// Distance between two triple *elements* (paper §III-A): literals and
// constants are compared with a string distance (Levenshtein by
// default); concepts are compared with a taxonomy-based semantic
// distance (Wu & Palmer by default).

#ifndef SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_
#define SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "ontology/similarity.h"
#include "ontology/taxonomy.h"
#include "rdf/term.h"
#include "text/string_distance.h"

namespace semtree {

/// Configuration of the element-level distance.
struct ElementDistanceOptions {
  /// Distance for literal/constant pairs.
  StringDistanceKind string_distance =
      StringDistanceKind::kNormalizedLevenshtein;

  /// Similarity measure for concept pairs (distance = 1 - similarity).
  SimilarityMeasure concept_measure = SimilarityMeasure::kWuPalmer;

  /// Distance charged when one element is a literal and the other a
  /// concept (incomparable kinds). The paper's two cases are
  /// literal/literal and concept/concept; mixed pairs get the maximum.
  double mixed_kind_distance = 1.0;
};

/// A term with its taxonomy lookup done once. Points into the Term it
/// was prepared from, which must outlive it.
struct PreparedTerm {
  const Term* term = nullptr;
  /// The resolved concept (aliases included); kInvalidConcept for
  /// literals and out-of-vocabulary concepts.
  ConceptId concept_id = kInvalidConcept;
};

/// A term fixed for comparisons with many others, such as a FastMap
/// pivot's (ElementDistance::Compile). Points into the Term it was
/// prepared from, which must outlive it.
struct CompiledTerm {
  PreparedTerm prepared;
  /// For a resolved concept p: ConceptDistance(measure, taxonomy, c, p)
  /// at index c, for every concept c. Empty otherwise.
  std::vector<double> concept_row;
  /// Taxonomy::generation() when the row was computed. A row from an
  /// older generation is not read.
  uint64_t generation = 0;
};

/// Computes the distance between two elements; always in [0,1].
///
/// Concepts that cannot be resolved in the taxonomy fall back to the
/// string distance over their qualified names, so unknown vocabulary
/// degrades gracefully rather than failing the query.
class ElementDistance {
 public:
  ElementDistance(const Taxonomy* taxonomy, ElementDistanceOptions options)
      : taxonomy_(taxonomy), options_(options) {}

  /// Resolves `term` in the taxonomy once, for repeated comparisons.
  PreparedTerm Prepare(const Term& term) const;

  /// Compiles a prepared term: a resolved concept gets its distance
  /// row (CompiledTerm), at the cost of |C| concept comparisons; any
  /// other term compares as a prepared one.
  CompiledTerm Compile(const PreparedTerm& term) const;

  double operator()(const PreparedTerm& a, const PreparedTerm& b) const {
    return Evaluate(a, b, nullptr);
  }
  double operator()(const Term& a, const Term& b) const {
    return (*this)(Prepare(a), Prepare(b));
  }
  /// Bit for bit (*this)(a, b.prepared), with b's row in place of the
  /// concept comparison.
  double operator()(const PreparedTerm& a, const CompiledTerm& b) const {
    return Evaluate(a, b.prepared, &b);
  }

  const ElementDistanceOptions& options() const { return options_; }
  const Taxonomy& taxonomy() const { return *taxonomy_; }

 private:
  // The one dispatch: equal terms, mixed kinds, literals, resolved
  // concepts, out-of-vocabulary names. `compiled`, if given, is `b`
  // compiled and answers the resolved-concept case.
  double Evaluate(const PreparedTerm& a, const PreparedTerm& b,
                  const CompiledTerm* compiled) const;

  const Taxonomy* taxonomy_;  // Not owned; must outlive this object.
  ElementDistanceOptions options_;
};

}  // namespace semtree

#endif  // SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_
