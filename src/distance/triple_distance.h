// Copyright 2026 The SemTree Authors
//
// The semantic triple distance of the paper, Eq. (1):
//
//   d(ti, tj) = alpha * ds(ti_s, tj_s)
//             + beta  * dp(ti_p, tj_p)
//             + gamma * do(ti_o, tj_o),     alpha + beta + gamma = 1
//
// where ds/dp/do are element distances over subjects, predicates and
// objects respectively.

#ifndef SEMTREE_DISTANCE_TRIPLE_DISTANCE_H_
#define SEMTREE_DISTANCE_TRIPLE_DISTANCE_H_

#include <functional>

#include "common/result.h"
#include "distance/element_distance.h"
#include "rdf/triple.h"

namespace semtree {

/// Weights of Eq. (1). Must be non-negative and sum to 1.
struct TripleDistanceWeights {
  double alpha = 1.0 / 3.0;  ///< subject weight
  double beta = 1.0 / 3.0;   ///< predicate weight
  double gamma = 1.0 / 3.0;  ///< object weight

  /// OK iff weights are non-negative and sum to 1 within 1e-9.
  Status Validate() const;
};

/// A triple whose concept terms were looked up in the taxonomy once, so
/// comparing it against many others repeats no name resolution. Points
/// into the Triple it was prepared from, which must outlive it.
struct PreparedTriple {
  PreparedTerm subject;
  PreparedTerm predicate;
  PreparedTerm object;
};

/// A triple compiled for comparisons with many queries, such as a
/// FastMap pivot (TripleDistance::Compile). Points into the Triple its
/// PreparedTriple was prepared from, which must outlive it.
struct CompiledTriple {
  CompiledTerm subject;
  CompiledTerm predicate;
  CompiledTerm object;
};

/// The composite semantic distance between triples; values in [0,1].
///
/// Copyable and cheap to pass by value; the taxonomy is shared, not
/// owned, and must outlive every TripleDistance referencing it. Safe to
/// call from many threads at once.
class TripleDistance {
 public:
  /// Builds a distance; fails if the weights are invalid or the
  /// taxonomy pointer is null.
  static Result<TripleDistance> Make(
      const Taxonomy* taxonomy,
      TripleDistanceWeights weights = {},
      ElementDistanceOptions element_options = {});

  /// Resolves the triple's terms once (see PreparedTriple).
  PreparedTriple Prepare(const Triple& t) const;

  /// Compiles a prepared triple term by term (CompiledTerm); a
  /// requirement triple (literal, concept, concept) gets two concept
  /// rows.
  CompiledTriple Compile(const PreparedTriple& t) const;

  /// Eq. (1). The Triple overload prepares both sides, then evaluates.
  double operator()(const PreparedTriple& a, const PreparedTriple& b) const;
  double operator()(const Triple& a, const Triple& b) const {
    return (*this)(Prepare(a), Prepare(b));
  }
  /// Eq. (1) against a compiled `b`: bit for bit the prepared form.
  double operator()(const PreparedTriple& a, const CompiledTriple& b) const;

  /// The three sub-distances of Eq. (1), unweighted (ds, dp, do).
  struct Components {
    double subject;
    double predicate;
    double object;
  };
  Components ComponentDistances(const PreparedTriple& a,
                                const PreparedTriple& b) const;
  Components ComponentDistances(const Triple& a, const Triple& b) const {
    return ComponentDistances(Prepare(a), Prepare(b));
  }

  const TripleDistanceWeights& weights() const { return weights_; }
  const ElementDistance& element_distance() const { return element_; }

 private:
  TripleDistance(const Taxonomy* taxonomy, TripleDistanceWeights weights,
                 ElementDistanceOptions element_options)
      : weights_(weights), element_(taxonomy, element_options) {}

  // The weighted sum of Eq. (1), one expression for every form.
  double Combine(const Components& c) const {
    return weights_.alpha * c.subject + weights_.beta * c.predicate +
           weights_.gamma * c.object;
  }

  TripleDistanceWeights weights_;
  ElementDistance element_;
};

/// Type-erased distance over triples; what FastMap and the exact
/// baseline consume.
using TripleDistanceFn =
    std::function<double(const Triple&, const Triple&)>;

}  // namespace semtree

#endif  // SEMTREE_DISTANCE_TRIPLE_DISTANCE_H_
