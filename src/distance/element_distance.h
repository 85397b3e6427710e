// Copyright 2026 The SemTree Authors
//
// Distance between two triple *elements* (paper §III-A): literals and
// constants are compared with a string distance (Levenshtein by
// default); concepts are compared with a taxonomy-based semantic
// distance (Wu & Palmer by default).

#ifndef SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_
#define SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_

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

  double operator()(const PreparedTerm& a, const PreparedTerm& b) const;
  double operator()(const Term& a, const Term& b) const {
    return (*this)(Prepare(a), Prepare(b));
  }

  const ElementDistanceOptions& options() const { return options_; }
  const Taxonomy& taxonomy() const { return *taxonomy_; }

 private:
  const Taxonomy* taxonomy_;  // Not owned; must outlive this object.
  ElementDistanceOptions options_;
};

}  // namespace semtree

#endif  // SEMTREE_DISTANCE_ELEMENT_DISTANCE_H_
