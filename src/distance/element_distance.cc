// Copyright 2026 The SemTree Authors

#include "distance/element_distance.h"

#include <algorithm>

namespace semtree {

PreparedTerm ElementDistance::Prepare(const Term& term) const {
  PreparedTerm prepared{&term, kInvalidConcept};
  if (term.is_concept()) {
    auto id = taxonomy_->Find(term.value());
    if (id.ok()) prepared.concept_id = *id;
  }
  return prepared;
}

CompiledTerm ElementDistance::Compile(const PreparedTerm& term) const {
  CompiledTerm compiled;
  compiled.prepared = term;
  compiled.generation = taxonomy_->generation();
  if (term.concept_id != kInvalidConcept) {
    // The query is the first argument, as in Evaluate.
    compiled.concept_row.resize(taxonomy_->size());
    for (ConceptId c = 0; c < taxonomy_->size(); ++c) {
      compiled.concept_row[c] = ConceptDistance(
          options_.concept_measure, *taxonomy_, c, term.concept_id);
    }
  }
  return compiled;
}

double ElementDistance::Evaluate(const PreparedTerm& pa,
                                 const PreparedTerm& pb,
                                 const CompiledTerm* compiled) const {
  const Term& a = *pa.term;
  const Term& b = *pb.term;
  if (a == b) return 0.0;
  if (a.kind() != b.kind()) {
    return std::clamp(options_.mixed_kind_distance, 0.0, 1.0);
  }
  if (a.is_literal()) {
    return StringDistance(options_.string_distance, a.value(), b.value());
  }
  if (pa.concept_id != kInvalidConcept && pb.concept_id != kInvalidConcept) {
    if (compiled != nullptr && !compiled->concept_row.empty() &&
        compiled->generation == taxonomy_->generation()) {
      return compiled->concept_row[pa.concept_id];
    }
    return ConceptDistance(options_.concept_measure, *taxonomy_,
                           pa.concept_id, pb.concept_id);
  }
  // Out-of-vocabulary concepts: compare qualified names as strings so
  // the distance stays total.
  return StringDistance(options_.string_distance, a.ToString(),
                        b.ToString());
}

}  // namespace semtree
