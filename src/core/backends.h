// Copyright 2026 The SemTree Authors
//
// SpatialIndex adapters and the backend factory. KdTree and
// LinearScanIndex implement SpatialIndex natively; the metric trees
// (VpTree, MTree) index abstract objects through a distance oracle, so
// their adapters own a PointStore of the inserted vectors and present
// the Euclidean metric over it. All four become interchangeable behind
// MakeSpatialIndex, which the cross-backend equivalence test and the
// comparison benches rely on.

#ifndef SEMTREE_CORE_BACKENDS_H_
#define SEMTREE_CORE_BACKENDS_H_

#include <memory>
#include <optional>

#include "common/mutex.h"
#include "core/point_store.h"
#include "core/spatial_index.h"
#include "kdtree/mtree.h"
#include "kdtree/vptree.h"
#include "persist/wire.h"

namespace semtree {

enum class BackendKind {
  kKdTree,
  kLinearScan,
  kVpTree,
  kMTree,
};

struct BackendOptions {
  /// Leaf bucket / node capacity of tree backends.
  size_t bucket_size = 32;

  /// Seed for randomized construction (VP vantage points, M-tree split
  /// promotion).
  uint64_t seed = 42;

  /// Distance function the index evaluates (core/kernels.h): L2
  /// (default), L1, or cosine (angular chord). The metric trees prune
  /// under any of the three (all satisfy the triangle inequality); the
  /// KD-tree stays exact under cosine but loses its region-bound
  /// pruning (see RegionLowerBound).
  Metric metric = Metric::kL2;

  /// How bulk builds cut nodes (core/split.h): median (default) or
  /// clustering-guided centroid splits (core/bulk_build.h). Consumed
  /// by the KD-tree's bulk load; recorded as index metadata on every
  /// backend and persisted with the snapshot tuning section.
  SplitPolicy split_policy = SplitPolicy::kMedian;

  /// Worker threads for bulk builds (KD-tree plan builds, VP-tree
  /// lazy rebuilds): 1 = serial (default), 0 = one per hardware
  /// thread, n = exactly n. Built structures are byte-identical across
  /// all values (DESIGN.md §8).
  size_t build_threads = 1;
};

/// Vantage-point tree over Euclidean vectors. The VP-tree core is a
/// static (build-once) index, so inserts are buffered in the point
/// store and the tree is rebuilt lazily on the first query after a
/// mutation. Removal is not supported.
class VpTreeIndex : public SpatialIndex {
 public:
  VpTreeIndex(size_t dimensions, BackendOptions options = {});

  Status Insert(const std::vector<double>& coords, PointId id) override;
  Status Remove(const std::vector<double>& coords, PointId id) override;

  /// Appends the whole batch to the arena and invalidates the built
  /// tree once — one deferred (possibly parallel, see
  /// BackendOptions::build_threads) whole-tree build on the next query
  /// instead of n rebuild invalidations.
  Status BulkLoad(const std::vector<KdPoint>& points) override;

  using SpatialIndex::KnnSearch;
  using SpatialIndex::RangeSearch;

  /// Budgeted searches (core/query.h): the budget is forwarded to the
  /// VP-tree's best-first walker; `stats->truncated` reports
  /// approximate results.
  std::vector<Neighbor> KnnSearch(const std::vector<double>& query,
                                  size_t k, const SearchBudget& budget,
                                  SearchStats* stats = nullptr) const override;
  std::vector<Neighbor> RangeSearch(
      const std::vector<double>& query, double radius,
      const SearchBudget& budget,
      SearchStats* stats = nullptr) const override;
  size_t size() const override { return store_.size(); }
  size_t dimensions() const override { return store_.dimensions(); }
  std::string_view name() const override { return "vptree"; }

  /// Changing the metric invalidates the built tree (its ball
  /// decomposition was computed under the old distances); the next
  /// query rebuilds lazily under the new one. Re-setting the current
  /// metric is a strict no-op: the built tree survives and no lazy
  /// rebuild is queued (regression-tested; rebuild_count observes it).
  Status set_metric(Metric metric) override;

  /// Forces the lazy rebuild now, so subsequent searches run pure
  /// read-only tree code (the RCU wrapper calls this when publishing
  /// a base built on this backend).
  Status Freeze() override {
    EnsureBuilt();
    return Status::OK();
  }

  /// Whole-tree builds performed so far — the price of every deferred
  /// rebuild, observable so tests can pin down when one happened (and
  /// when one must not have: see the set_metric no-op contract).
  uint64_t rebuild_count() const {
    return rebuild_count_.load(std::memory_order_acquire);
  }

  /// Serializes the adapter (arena + built tree + epoch). Forces the
  /// lazy rebuild first so the snapshot preserves the tree structure.
  /// The metric itself rides in the snapshot tuning section
  /// (persist/index_snapshot.cc) and is handed back through `metric`
  /// on load — before the tree binds its distance oracle.
  void SaveTo(persist::ByteWriter* out) const;
  static Result<std::unique_ptr<VpTreeIndex>> LoadFrom(
      persist::ByteReader* in, Metric metric = Metric::kL2);

 private:
  void EnsureBuilt() const;
  const VpTree* built_tree() const;

  BackendOptions options_;
  PointStore store_;
  // The lazy rebuild makes queries mutate state, so concurrent
  // searches (safe on every other backend) must serialize the
  // check-and-build; afterwards the tree is read-only until the next
  // Insert. Mutations (Insert/BulkLoad/set_metric) also take the lock
  // to reset the tree — they are externally synchronized against
  // searches (SpatialIndex contract), but not against each other.
  mutable Mutex build_mu_;
  mutable std::optional<VpTree> tree_
      GUARDED_BY(build_mu_);  // Rebuilt when stale.
  mutable std::atomic<uint64_t> rebuild_count_{0};
};

/// Dynamic M-tree over Euclidean vectors. Supports incremental
/// insertion; removal is not supported.
class MTreeIndex : public SpatialIndex {
 public:
  MTreeIndex(size_t dimensions, BackendOptions options = {});

  // The M-tree's distance oracle captures `this`; pin the adapter.
  MTreeIndex(const MTreeIndex&) = delete;
  MTreeIndex& operator=(const MTreeIndex&) = delete;

  Status Insert(const std::vector<double>& coords, PointId id) override;
  Status Remove(const std::vector<double>& coords, PointId id) override;

  using SpatialIndex::KnnSearch;
  using SpatialIndex::RangeSearch;

  /// Budgeted searches (core/query.h): the budget is forwarded to the
  /// M-tree's best-first walker; `stats->truncated` reports
  /// approximate results.
  std::vector<Neighbor> KnnSearch(const std::vector<double>& query,
                                  size_t k, const SearchBudget& budget,
                                  SearchStats* stats = nullptr) const override;
  std::vector<Neighbor> RangeSearch(
      const std::vector<double>& query, double radius,
      const SearchBudget& budget,
      SearchStats* stats = nullptr) const override;
  size_t size() const override { return store_.size(); }
  size_t dimensions() const override { return store_.dimensions(); }
  std::string_view name() const override { return "mtree"; }

  /// The M-tree's routing radii are computed at insert time, so the
  /// metric cannot change once points are stored (FailedPrecondition);
  /// re-setting the current metric is a no-op.
  Status set_metric(Metric metric) override;

  /// Serializes the adapter (arena + tree + epoch); the loaded tree's
  /// distance oracle is re-bound to the loaded arena under `metric`
  /// (restored from the snapshot tuning section).
  void SaveTo(persist::ByteWriter* out) const;
  static Result<std::unique_ptr<MTreeIndex>> LoadFrom(
      persist::ByteReader* in, Metric metric = Metric::kL2);

 private:
  PointStore store_;
  std::unique_ptr<MTree> tree_;
};

/// Creates a backend of the requested kind over a `dimensions`-d space.
std::unique_ptr<SpatialIndex> MakeSpatialIndex(BackendKind kind,
                                               size_t dimensions,
                                               BackendOptions options = {});

/// Backend name without instantiating one (for bench series labels).
std::string_view BackendName(BackendKind kind);

}  // namespace semtree

#endif  // SEMTREE_CORE_BACKENDS_H_
