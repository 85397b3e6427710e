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

double ElementDistance::operator()(const PreparedTerm& pa,
                                   const PreparedTerm& pb) const {
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
    return ConceptDistance(options_.concept_measure, *taxonomy_,
                           pa.concept_id, pb.concept_id);
  }
  // Out-of-vocabulary concepts: compare qualified names as strings so
  // the distance stays total.
  return StringDistance(options_.string_distance, a.ToString(),
                        b.ToString());
}

}  // namespace semtree
