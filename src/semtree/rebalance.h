// Copyright 2026 The SemTree Authors
//
// Public knobs and observability structs of the online skew-aware
// partition rebalancer (DESIGN.md §12). The rebalancer itself is part
// of SemTree (semtree/rebalance.cc): a client-side coordinator that
// watches decayed per-partition load counters and, at most once per
// tick, splits a subtree of the hottest overloaded partition onto
// fresh seats (in one activation of the source: ChooseSplitForPolicy
// over the subtree's points, halves shipped as PointBlocks) while
// readers and writers keep running. Like the paper's build-partition,
// it only ever grows the partitioning.

#ifndef SEMTREE_SEMTREE_REBALANCE_H_
#define SEMTREE_SEMTREE_REBALANCE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "semtree/partition.h"

namespace semtree {

/// Policy knobs of the online rebalancer. Triggers are relative to the
/// mean load score over data-holding partitions, so they need no
/// absolute calibration per workload.
struct RebalanceOptions {
  /// Background tick period (SemTree::StartRebalancer).
  std::chrono::milliseconds interval{20};

  /// A partition splits when its load score is at least this multiple
  /// of the mean score.
  double split_load_factor = 2.0;

  /// Minimum points a subtree must hold to be worth splitting.
  size_t min_split_points = 256;

  /// A tick is a no-op below this much total observed load score.
  double min_total_load = 1.0;
};

/// Monotone counters of rebalance activity (SemTree::DebugStats).
struct RebalanceCounters {
  uint64_t ticks = 0;
  uint64_t splits = 0;
  /// Always 0: the rebalancer only splits. Kept because perfbench/
  /// reports them.
  uint64_t merges = 0;
  uint64_t migrations = 0;
  uint64_t points_moved = 0; ///< Points shipped in split halves.
};

/// One-stop debugging/observability snapshot of the distributed tree:
/// per-partition stats (sizes, load counters, per-partition rebalance
/// counts) and the tree-level rebalance counters.
struct SemTreeDebugStats {
  std::vector<PartitionStats> partitions;
  RebalanceCounters rebalance;
  uint64_t rebalance_epoch = 0;  ///< Odd while a step is in flight.
  size_t total_points = 0;

  std::string ToString() const;
};

}  // namespace semtree

#endif  // SEMTREE_SEMTREE_REBALANCE_H_
