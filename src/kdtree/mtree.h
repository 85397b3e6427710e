// Copyright 2026 The SemTree Authors
//
// An M-tree (Ciaccia, Patella & Zezula, VLDB 1997): a *dynamic*,
// balanced metric index. The paper's §III-B surveys it among the
// alternative structures ("R-tree, Kd-tree, X-tree, SS-tree, M-tree,
// Quadtree") before choosing the KD-tree; together with the static
// VP-tree (vptree.h) it completes the metric-baseline family used by
// the ablation benches: unlike SemTree it needs no FastMap embedding,
// and unlike the VP-tree it supports incremental insertion.
//
// Like every ball-decomposition index, pruning relies on the triangle
// inequality; `prune_slack` widens the bounds for the mildly
// non-metric semantic distance (see metric_audit.h).

#ifndef SEMTREE_KDTREE_MTREE_H_
#define SEMTREE_KDTREE_MTREE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/point.h"     // Neighbor, SearchStats.
#include "kdtree/vptree.h"  // MetricDistanceFn / QueryDistanceFn.
#include "persist/wire.h"

namespace semtree {

struct MTreeOptions {
  /// Maximum entries per node before it splits.
  size_t node_capacity = 16;

  /// Seed for split-promotion sampling.
  uint64_t seed = 42;

  /// Additive slack on pruning bounds (0 = textbook; raise above the
  /// worst triangle-inequality excess for near-metric distances).
  double prune_slack = 0.0;
};

/// Dynamic M-tree over objects 0..n-1 known through a distance oracle.
///
/// The oracle is captured at construction and must stay valid for the
/// tree's lifetime; `Insert(i)` may invoke it against previously
/// inserted objects.
class MTree {
 public:
  /// Creates an empty tree. The oracle must be symmetric with zero
  /// self-distance.
  static Result<MTree> Create(MetricDistanceFn distance,
                              MTreeOptions options = {});

  /// Inserts object `index`. Objects may be inserted in any order;
  /// duplicate indices are allowed (multiset semantics).
  Status Insert(size_t index);

  /// K nearest objects to the query under `budget`, sorted by
  /// (distance, id). `distance_to_query` is evaluated lazily; routing
  /// pivot probes and leaf scans both count against the budget's
  /// distance cap. The traversal was already best-first on covering-
  /// ball lower bounds — it now runs on the shared budgeted walker
  /// (core/best_first.h), so exact budgets reproduce the classic
  /// result and spent budgets truncate (stats->truncated) having
  /// visited the closest balls first. A hit's id is
  /// `object_id(object)`, or the object index when it is empty; that
  /// id also decides which of the objects tied at the k-th distance
  /// are kept.
  std::vector<Neighbor> KnnSearch(const QueryDistanceFn& distance_to_query,
                                  size_t k, const SearchBudget& budget,
                                  SearchStats* stats = nullptr,
                                  const ObjectIdFn& object_id = {}) const;
  std::vector<Neighbor> KnnSearch(const QueryDistanceFn& distance_to_query,
                                  size_t k,
                                  SearchStats* stats = nullptr) const {
    return KnnSearch(distance_to_query, k, SearchBudget{}, stats);
  }

  /// All objects within `radius` of the query, same budget semantics
  /// (members may be missed, never misreported).
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
  size_t Height() const;

  /// Structural audit: every object lies within the covering radius of
  /// each ancestor routing entry (up to prune_slack), and entry counts
  /// reconcile.
  Status CheckInvariants() const;

  /// Serializes the tree structure — options, nodes, routing entries,
  /// cached distances — for the v2 snapshot (DESIGN.md §5).
  void SaveTo(persist::ByteWriter* out) const;

  /// Structure-preserving load. The caller supplies the distance
  /// oracle (it cannot be persisted) and the exclusive upper bound on
  /// valid object indices; the split-promotion Rng restarts from the
  /// saved seed, which only influences future splits, never query
  /// results.
  static Result<MTree> LoadFrom(MetricDistanceFn distance,
                                uint64_t object_bound,
                                persist::ByteReader* in);

 private:
  struct Entry {
    size_t object = 0;          // Pivot (routing) or data object (leaf).
    double parent_distance = 0.0;  // d(object, parent pivot).
    double radius = 0.0;        // Covering radius (routing only).
    int32_t child = -1;         // Subtree (routing only).
  };
  struct Node {
    bool is_leaf = true;
    int32_t parent = -1;        // Node index; -1 for the root.
    std::vector<Entry> entries;
  };

  explicit MTree(MetricDistanceFn distance, MTreeOptions options)
      : distance_(std::move(distance)), options_(options), rng_(options.seed) {
    nodes_.push_back(Node{});  // Empty leaf root.
  }

  int32_t ChooseLeaf(size_t object);
  void SplitNode(int32_t node);
  void UpdateRadiiUpward(int32_t node, size_t object);
  double EntryDistance(const Entry& e, size_t object) const {
    return distance_(e.object, object);
  }

  MetricDistanceFn distance_;
  MTreeOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  int32_t root_ = 0;
  size_t size_ = 0;
};

}  // namespace semtree

#endif  // SEMTREE_KDTREE_MTREE_H_
