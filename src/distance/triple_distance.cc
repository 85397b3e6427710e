// Copyright 2026 The SemTree Authors

#include "distance/triple_distance.h"

#include <cmath>

#include "common/string_util.h"

namespace semtree {

Status TripleDistanceWeights::Validate() const {
  if (alpha < 0.0 || beta < 0.0 || gamma < 0.0) {
    return Status::InvalidArgument("weights must be non-negative");
  }
  double sum = alpha + beta + gamma;
  if (std::fabs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        StringPrintf("weights must sum to 1, got %.12f", sum));
  }
  return Status::OK();
}

Result<TripleDistance> TripleDistance::Make(
    const Taxonomy* taxonomy, TripleDistanceWeights weights,
    ElementDistanceOptions element_options) {
  if (taxonomy == nullptr) {
    return Status::InvalidArgument("taxonomy must not be null");
  }
  SEMTREE_RETURN_NOT_OK(weights.Validate());
  return TripleDistance(taxonomy, weights, element_options);
}

PreparedTriple TripleDistance::Prepare(const Triple& t) const {
  return PreparedTriple{element_.Prepare(t.subject),
                        element_.Prepare(t.predicate),
                        element_.Prepare(t.object)};
}

CompiledTriple TripleDistance::Compile(const PreparedTriple& t) const {
  return CompiledTriple{element_.Compile(t.subject),
                        element_.Compile(t.predicate),
                        element_.Compile(t.object)};
}

double TripleDistance::operator()(const PreparedTriple& a,
                                  const PreparedTriple& b) const {
  return Combine(ComponentDistances(a, b));
}

double TripleDistance::operator()(const PreparedTriple& a,
                                  const CompiledTriple& b) const {
  return Combine(Components{element_(a.subject, b.subject),
                            element_(a.predicate, b.predicate),
                            element_(a.object, b.object)});
}

TripleDistance::Components TripleDistance::ComponentDistances(
    const PreparedTriple& a, const PreparedTriple& b) const {
  return Components{element_(a.subject, b.subject),
                    element_(a.predicate, b.predicate),
                    element_(a.object, b.object)};
}

}  // namespace semtree
