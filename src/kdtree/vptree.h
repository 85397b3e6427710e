// Copyright 2026 The SemTree Authors
//
// A vantage-point tree over an arbitrary (near-)metric distance. This
// is the comparison baseline for SemTree's central design choice: the
// paper maps triples into a vector space with FastMap and indexes the
// vectors with a KD-tree; a VP-tree indexes the *original* distance
// directly, with no embedding error. The ablation bench pits the two
// against each other.
//
// Caveat: VP-tree pruning assumes the triangle inequality. The semantic
// distance of Eq. (1) can violate it mildly (see metric_audit.h), in
// which case the VP-tree's k-NN becomes slightly approximate; the
// `prune_slack` option widens the visit condition to compensate.

#ifndef SEMTREE_KDTREE_VPTREE_H_
#define SEMTREE_KDTREE_VPTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "core/point.h"  // Neighbor, SearchStats.
#include "core/query.h"  // SearchBudget.
#include "persist/wire.h"

namespace semtree {

/// Distance oracle over the indexed objects (by index 0..n-1).
using MetricDistanceFn = std::function<double(size_t, size_t)>;

/// Distance from the query object to an indexed object.
using QueryDistanceFn = std::function<double(size_t)>;

/// PointId of an indexed object (by index 0..n-1).
using ObjectIdFn = std::function<PointId(size_t)>;

/// Rounding allowance of the metric trees' ball bounds (DESIGN.md §6).
/// A ball bound d(q, c) - r or r - d(q, c) subtracts two rounded
/// distances; on collinear points it can exceed the rounded d(q, p) of
/// a point on the ball's edge by an ulp, and so prune a point tied at
/// the k-th distance or lying on the range radius. Widening the slack
/// by 1e-12·(d(q, c) + r) keeps the bounds admissible for any oracle
/// whose relative rounding error per distance stays below 2.5e-13; the
/// L2 and L1 kernels do up to a thousand dimensions.
inline double BallRoundingSlack(double d, double r) {
  return 1e-12 * (d + r);
}

struct VpTreeOptions {
  /// Leaf bucket capacity.
  size_t bucket_size = 16;

  /// Seed for vantage-point selection.
  uint64_t seed = 42;

  /// Additive slack on the pruning conditions; raise above the worst
  /// observed triangle-inequality excess to regain exactness on
  /// near-metric distances (0 = textbook pruning).
  double prune_slack = 0.0;

  /// Worker threads for Build: 1 = serial (default), 0 = one per
  /// hardware thread, n = exactly n. Vantage picks are seeded per node
  /// span (core/bulk_build.h MixSeed), so the built tree is identical
  /// across all values. Values > 1 require the distance oracle to be
  /// safe to call from concurrent threads. Not persisted: a snapshot
  /// stores the built structure, and this knob never changes it.
  size_t build_threads = 1;
};

/// Static vantage-point tree (built once over n objects).
class VpTree {
 public:
  /// Builds the tree; the oracle must be symmetric with zero
  /// self-distance. Fails on n == 0 or a null oracle.
  static Result<VpTree> Build(size_t n, const MetricDistanceFn& distance,
                              const VpTreeOptions& options = {});

  /// K nearest indexed objects to the query under `budget`, sorted by
  /// (distance, id). `distance_to_query` is invoked lazily, only for
  /// objects the search actually visits — vantage-point probes and
  /// leaf scans both count against the budget's distance cap. The
  /// traversal is a best-first walk over metric ball bounds
  /// (core/best_first.h); an exact budget reproduces textbook VP-tree
  /// results, truncation is reported via `stats->truncated`. A hit's
  /// id is `object_id(object)`, or the object index when it is empty;
  /// that id also decides which of the objects tied at the k-th
  /// distance are kept.
  std::vector<Neighbor> KnnSearch(const QueryDistanceFn& distance_to_query,
                                  size_t k, const SearchBudget& budget,
                                  SearchStats* stats = nullptr,
                                  const ObjectIdFn& object_id = {}) const;
  std::vector<Neighbor> KnnSearch(const QueryDistanceFn& distance_to_query,
                                  size_t k,
                                  SearchStats* stats = nullptr) const {
    return KnnSearch(distance_to_query, k, SearchBudget{}, stats);
  }

  /// All indexed objects within `radius` of the query, under the same
  /// budget semantics (members may be missed, never misreported).
  std::vector<Neighbor> RangeSearch(
      const QueryDistanceFn& distance_to_query, double radius,
      const SearchBudget& budget, SearchStats* stats = nullptr) const;
  std::vector<Neighbor> RangeSearch(
      const QueryDistanceFn& distance_to_query, double radius,
      SearchStats* stats = nullptr) const {
    return RangeSearch(distance_to_query, radius, SearchBudget{}, stats);
  }

  size_t size() const { return size_; }
  size_t NodeCount() const { return nodes_.size(); }
  size_t Depth() const;

  /// Serializes the built tree (options, nodes, buckets) so a load
  /// reproduces the exact vantage-point structure without re-running
  /// the randomized build (DESIGN.md §5).
  void SaveTo(persist::ByteWriter* out) const;
  static Result<VpTree> LoadFrom(persist::ByteReader* in);

 private:
  struct Node {
    bool is_leaf = true;
    size_t vantage = 0;      // Object index of the vantage point.
    double threshold = 0.0;  // Median distance to the vantage point.
    int32_t inside = -1;     // d(vantage, x) <= threshold.
    int32_t outside = -1;    // d(vantage, x) > threshold.
    std::vector<size_t> bucket;  // Leaf objects.
  };

  explicit VpTree(VpTreeOptions options) : options_(options) {}

  /// Phase-2 emission (core/bulk_build.h): turns the phase-1 plan into
  /// the node array in canonical pre-order (node, inside subtree,
  /// outside subtree — the historical recursion's allocation order).
  void BuildFromPlan(const struct VpPlanNode& root,
                     const std::vector<size_t>& objects);

  VpTreeOptions options_;
  std::vector<Node> nodes_;
  size_t size_ = 0;
};

}  // namespace semtree

#endif  // SEMTREE_KDTREE_VPTREE_H_
