// Copyright 2026 The SemTree Authors
//
// SpatialQuery: one element of a mixed query batch. The QueryEngine
// (engine/query_engine.h) and the distributed tree's search loop
// (SemTree::BatchSearch, which also serves its single-query searches)
// both consume these, so the type lives in core/ below either consumer.
// A query is either k-NN (`k` is meaningful) or range (`radius` is
// meaningful); results follow the canonical (distance, id) ordering of
// core/point.h either way.
//
// SearchBudget is the approximate-search contract (DESIGN.md §6): a
// per-query cap on search work plus an epsilon slack on the pruning
// bound. The default budget is exact — every search without an explicit
// budget behaves as if the subsystem did not exist.

#ifndef SEMTREE_CORE_QUERY_H_
#define SEMTREE_CORE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace semtree {

enum class QueryType : uint8_t {
  kKnn = 0,
  kRange = 1,
};

/// Work/precision budget of one search (DESIGN.md §6).
///
/// Three independent knobs, all neutral by default:
///
///  * `max_distance_computations` — hard cap on distance evaluations
///    (leaf points scanned + routing pivots probed; the search's
///    `SearchStats::points_examined`). 0 means unlimited.
///  * `max_nodes_visited` — hard cap on tree nodes entered
///    (`SearchStats::nodes_visited`). 0 means unlimited.
///  * `epsilon` — relative slack on the pruning bound: a subtree is
///    skipped unless it could contain a point closer than
///    `best/(1+epsilon)` (k-NN) or `radius/(1+epsilon)` (range), the
///    classic (1+ε)-approximate-nearest-neighbor criterion. 0 means
///    textbook exact pruning. Negative (and NaN) values are clamped
///    to exact by the raw backend surface (pruning_scale), but
///    QueryEngine::Run rejects them up front with InvalidArgument —
///    pass 0 to mean exact.
///
/// Results under any budget are always *true* distances to *stored*
/// points, sorted canonically — a budget can only make the result set
/// miss far-flung members (recall < 1), never report a wrong distance
/// (precision stays 1). A search that stopped short of proving
/// exactness reports `SearchStats::truncated`.
struct SearchBudget {
  size_t max_distance_computations = 0;  ///< 0 = unlimited.
  size_t max_nodes_visited = 0;          ///< 0 = unlimited.
  double epsilon = 0.0;                  ///< 0 = exact pruning.

  /// The default budget: unlimited work, exact pruning.
  static SearchBudget Exact() { return SearchBudget{}; }

  /// Budget capping only distance computations.
  static SearchBudget MaxDistances(size_t n) {
    SearchBudget b;
    b.max_distance_computations = n;
    return b;
  }

  /// Budget capping only nodes visited.
  static SearchBudget MaxNodes(size_t n) {
    SearchBudget b;
    b.max_nodes_visited = n;
    return b;
  }

  /// Budget relaxing only the pruning bound by (1+eps).
  static SearchBudget Epsilon(double eps) {
    SearchBudget b;
    b.epsilon = eps;
    return b;
  }

  /// True when every knob is neutral: a search under this budget is
  /// guaranteed byte-identical to one issued without any budget.
  bool exact() const {
    return max_distance_computations == 0 && max_nodes_visited == 0 &&
           !(epsilon > 0.0);
  }

  /// The factor pruning limits shrink by: 1/(1+epsilon), clamping
  /// negative (and NaN) epsilon to exact.
  double pruning_scale() const {
    return epsilon > 0.0 ? 1.0 / (1.0 + epsilon) : 1.0;
  }

  bool operator==(const SearchBudget& o) const {
    return max_distance_computations == o.max_distance_computations &&
           max_nodes_visited == o.max_nodes_visited &&
           epsilon == o.epsilon;
  }
};

/// One k-NN or range query over the embedded space.
struct SpatialQuery {
  QueryType type = QueryType::kKnn;
  std::vector<double> coords;
  size_t k = 0;         ///< Result size bound (k-NN only).
  double radius = 0.0;  ///< Inclusive distance bound (range only).
  SearchBudget budget;  ///< Approximation budget; exact by default.

  static SpatialQuery Knn(std::vector<double> coords, size_t k,
                          SearchBudget budget = {}) {
    SpatialQuery q;
    q.type = QueryType::kKnn;
    q.coords = std::move(coords);
    q.k = k;
    q.budget = budget;
    return q;
  }

  static SpatialQuery Range(std::vector<double> coords, double radius,
                            SearchBudget budget = {}) {
    SpatialQuery q;
    q.type = QueryType::kRange;
    q.coords = std::move(coords);
    q.radius = radius;
    q.budget = budget;
    return q;
  }
};

}  // namespace semtree

#endif  // SEMTREE_CORE_QUERY_H_
