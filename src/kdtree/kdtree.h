// Copyright 2026 The SemTree Authors
//
// A sequential KD-tree with bucket leaves — the substrate of SemTree
// (§III-B). Data lives only in leaf buckets, as the paper assumes; each
// internal (routing) node carries a split index Sr and split value Sv.
// When an insertion saturates a leaf's bucket, two child nodes are
// instantiated and the points move down (Fig. 1).
//
// Coordinates live in a flat row-major PointStore arena; leaf buckets
// hold 32-bit slot indices into it, so a bucket scan reads one
// contiguous row per point instead of chasing per-point heap vectors.
// The plan-based bulk builds also permute the arena so that each leaf's
// rows form one run of consecutive slots (DESIGN.md §8); points
// inserted later land in append or free-list order.
//
// Besides dynamic insertion, two bulk builders exist for the paper's
// efficiency experiments: a balanced median build and a "totally
// unbalanced (chain)" build (Figs. 3, 4, 6).

#ifndef SEMTREE_KDTREE_KDTREE_H_
#define SEMTREE_KDTREE_KDTREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/distance.h"
#include "core/kernels.h"
#include "core/point.h"
#include "core/point_store.h"
#include "core/spatial_index.h"
#include "persist/wire.h"

namespace semtree {

class BudgetGauge;

struct KdTreeOptions {
  /// Bucket capacity Bs of a leaf; exceeding it triggers a split.
  size_t bucket_size = 32;

  /// Distance function evaluated by searches (core/kernels.h). The
  /// splitting structure is coordinate-based and metric-independent;
  /// only leaf distances and the region lower bound change. For
  /// kCosine the region bound degenerates to 0 (searches stay exact
  /// but approach an exhaustive scan; see RegionLowerBound).
  Metric metric = Metric::kL2;

  /// How bulk builds cut nodes (core/split.h): the paper's median
  /// split, or clustering-guided centroid splits (core/bulk_build.h).
  /// Incremental insertion always splits overflowing buckets by
  /// median — the policy steers bulk loads only.
  SplitPolicy split_policy = SplitPolicy::kMedian;

  /// Worker threads for bulk builds: 1 = serial (default), 0 = one per
  /// hardware thread, n = exactly n. The built tree — and its snapshot
  /// bytes — are identical across all values (DESIGN.md §8).
  size_t build_threads = 1;
};

/// Bucket KD-tree over a fixed-dimensional space.
///
/// Not thread-safe for mutation; concurrent searches are safe once
/// construction/insertion stops.
class KdTree : public SpatialIndex {
 public:
  /// An empty tree (a single empty leaf).
  explicit KdTree(size_t dimensions, KdTreeOptions options = {});

  /// Balanced bulk load: recursive median split over the widest-spread
  /// dimension. Fails on dimension mismatches.
  static Result<KdTree> BulkLoadBalanced(size_t dimensions,
                                         const std::vector<KdPoint>& points,
                                         KdTreeOptions options = {});

  /// Degenerate chain build: the tree becomes a right-leaning chain of
  /// routing nodes, each shedding one leaf — the paper's "totally
  /// unbalanced (chain)" worst case.
  static Result<KdTree> BuildChain(size_t dimensions,
                                   const std::vector<KdPoint>& points,
                                   KdTreeOptions options = {});

  /// Inserts one point (paper §III-B.1, sequential case). Fails if
  /// `coords` has the wrong dimensionality.
  Status Insert(const std::vector<double>& coords, PointId id) override;

  /// Removes the point with the given coordinates and id. The paper
  /// notes that "once built, modifying or rebalancing a Kd-tree is a
  /// non-trivial task"; removal here erases the point from its leaf
  /// bucket (the routing structure is kept — regions only ever shrink,
  /// so searches stay correct). Returns NotFound if no such point is
  /// stored.
  Status Remove(const std::vector<double>& coords, PointId id) override;

  // Re-expose the budget-less convenience overloads next to the
  // budgeted overrides below.
  using SpatialIndex::KnnSearch;
  using SpatialIndex::RangeSearch;

  /// Keeps options().metric in sync so the stored options never
  /// disagree with metric() (the single source of truth).
  Status set_metric(Metric metric) override {
    options_.metric = metric;
    return SpatialIndex::set_metric(metric);
  }

  /// Keeps options().split_policy in sync, mirroring set_metric.
  Status set_split_policy(SplitPolicy policy) override {
    options_.split_policy = policy;
    return SpatialIndex::set_split_policy(policy);
  }

  /// Batch load through the parallel plan builder (core/bulk_build.h)
  /// under options().split_policy: on an empty tree the whole batch is
  /// built balanced in one pass (parallel when build_threads allows,
  /// byte-identical to serial either way); on a non-empty tree it
  /// falls back to the Insert loop.
  Status BulkLoad(const std::vector<KdPoint>& points) override;

  /// The k nearest points to `query` (paper §III-B.3, sequential
  /// case), as a budgeted best-first walk over region lower bounds
  /// (core/best_first.h): exact budgets reproduce the textbook result,
  /// spent budgets truncate (stats->truncated) having visited the
  /// closest regions first.
  std::vector<Neighbor> KnnSearch(
      const std::vector<double>& query, size_t k, const SearchBudget& budget,
      SearchStats* stats = nullptr) const override;

  /// All points within `radius` of `query` (paper §III-B.4), under the
  /// same budget semantics (truncation may drop members, never add).
  std::vector<Neighbor> RangeSearch(
      const std::vector<double>& query, double radius,
      const SearchBudget& budget,
      SearchStats* stats = nullptr) const override;

  size_t size() const override { return store_.size(); }
  size_t dimensions() const override { return dimensions_; }
  std::string_view name() const override { return "kdtree"; }
  const KdTreeOptions& options() const { return options_; }

  /// The flat coordinate arena backing this tree.
  const PointStore& store() const { return store_; }

  /// Total node count (routing + leaf).
  size_t NodeCount() const { return nodes_.size(); }
  size_t LeafCount() const;
  size_t RoutingCount() const { return NodeCount() - LeafCount(); }

  /// Longest root-to-leaf path (0 for a single leaf).
  size_t Depth() const;

  /// Every leaf's bucket of store slots, leaves in pre-order (left
  /// subtree first): the arena layout a bulk build produces.
  std::vector<std::vector<PointStore::Slot>> LeafBuckets() const;

  /// Verifies structural invariants: every stored point lies in the
  /// region its ancestors' splits induce; size bookkeeping matches.
  Status CheckInvariants() const;

  /// Serializes the tree — node topology, leaf buckets, the arena and
  /// the mutation epoch — for the v2 snapshot (DESIGN.md §5).
  void SaveTo(persist::ByteWriter* out) const;

  /// Structure-preserving load: the saved topology is read back
  /// directly (O(bytes), no rebuild), so searches on the loaded tree
  /// visit the same nodes and return byte-identical results.
  static Result<KdTree> LoadFrom(persist::ByteReader* in);

 private:
  using Slot = PointStore::Slot;

  struct Node {
    bool is_leaf = true;
    uint32_t split_dim = 0;    // Sr
    double split_value = 0.0;  // Sv
    int32_t left = -1;
    int32_t right = -1;
    std::vector<Slot> bucket;  // Leaf payload (empty on routing nodes).
  };

  int32_t NewLeaf();
  /// Splits leaf `node` if a separating dimension exists; on totally
  /// duplicated points the bucket is left to overflow.
  void MaybeSplitLeaf(int32_t node);
  /// Replaces the current (empty) node array with the balanced tree
  /// described by the phase-1 plan over `slots`, allocating nodes in
  /// the canonical serial order: node, left subtree, right subtree.
  /// `slots` must be every slot of a store without free slots; the
  /// store is permuted into leaf order.
  void BuildFromPlan(std::vector<Slot>& slots);
  /// Appends `points` into the arena, returning their slots; fails on a
  /// dimensionality mismatch.
  Result<std::vector<Slot>> StoreAll(const std::vector<KdPoint>& points);
  /// The best-first walk KnnSearch and RangeSearch share: children are
  /// pushed with region lower bounds (DESIGN.md §6), and every point of
  /// a leaf the walk scans goes to `sink(id, distance)`.
  template <typename RelaxedLimitFn, typename ExactLimitFn, typename Sink>
  void RegionWalk(const double* query, BudgetGauge* gauge,
                  SearchStats* stats, RelaxedLimitFn relaxed_limit,
                  ExactLimitFn exact_limit, Sink sink) const;

  size_t dimensions_;
  KdTreeOptions options_;
  PointStore store_;
  std::vector<Node> nodes_;
};

}  // namespace semtree

#endif  // SEMTREE_KDTREE_KDTREE_H_
