// Copyright 2026 The SemTree Authors
//
// Internal wire structs of the SemTree message protocol. Payloads are
// type-erased shared_ptr<void>s (cluster/message.h), so the sender and
// every handler must agree on the concrete struct behind each message
// type; hoisting them out of semtree.cc's anonymous namespace lets the
// protocol be implemented across translation units (semtree.cc for the
// §III-B core, rebalance.cc for the online rebalancer of DESIGN.md §12)
// without ODR hazards. Not part of the public API: only semtree/*.cc
// include this.

#ifndef SEMTREE_SEMTREE_PROTOCOL_H_
#define SEMTREE_SEMTREE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/point.h"
#include "core/point_block.h"
#include "core/query.h"
#include "core/split.h"
#include "semtree/partition.h"

namespace semtree {
namespace protocol {

// Message types of the SemTree protocol.
constexpr uint32_t kInsertMsg = 1;
constexpr uint32_t kSearchMsg = 2;
constexpr uint32_t kBuildPartitionMsg = 4;
constexpr uint32_t kStatsMsg = 6;
constexpr uint32_t kRemoveMsg = 7;
constexpr uint32_t kBulkBuildMsg = 8;
constexpr uint32_t kInstallTopologyMsg = 9;
constexpr uint32_t kSnapshotMsg = 11;
constexpr uint32_t kRestoreMsg = 12;
// Online rebalancing (DESIGN.md §12).
constexpr uint32_t kSplitMsg = 13;

// The request of both point operations, kInsertMsg and kRemoveMsg: the
// point, and the node of the receiving partition its walk starts at.
struct PointRequest {
  int32_t start_node = 0;
  KdPoint point;
};
struct InsertResponse {
  bool ok = false;
  bool saturated = false;
  int32_t partition = -1;
  std::string error;
};
struct RemoveResponse {
  bool found = false;
  std::string error;
};

// Budget accounting that travels inside a search work item: the caps
// (SearchBudget, core/query.h) plus the work already spent across
// every partition the item visited, so a k-NN cap is global to the
// query, not reset per hop; a range item walks one partition subtree,
// so its cap is that subtree's. Mirrors core/best_first.h's
// BudgetGauge for the message-passing traversal.
struct TravelBudget {
  SearchBudget budget;
  uint64_t nodes = 0;
  uint64_t points = 0;
  bool truncated = false;

  bool ChargeNode() {
    if (budget.max_nodes_visited != 0 &&
        nodes >= budget.max_nodes_visited) {
      truncated = true;
      return false;
    }
    ++nodes;
    return true;
  }
  // Bulk grant for batched leaf scans — the same accounting as charging
  // `want` distances one by one (mirrors BudgetGauge::ChargeDistances).
  size_t ChargeDistances(size_t want) {
    size_t granted = want;
    if (budget.max_distance_computations != 0) {
      uint64_t remaining = budget.max_distance_computations > points
                               ? budget.max_distance_computations - points
                               : 0;
      if (remaining < want) {
        granted = size_t(remaining);
        truncated = true;
      }
    }
    points += granted;
    return granted;
  }
  double eps() const {
    return budget.epsilon > 0.0 ? budget.epsilon : 0.0;
  }
};

// Node status of the k-nearest traversal — Table I of the paper:
// Not Visited (Nv), Left/Right (near side) Visited, All Visited (Av).
// Only a Not Visited frame reads its node, so only it must run on the
// partition hosting the node; the other two run wherever the item is.
enum class VisitStatus : uint8_t {
  kNotVisited = 0,
  kNearVisited = 1,
  kAllVisited = 2,
};

// One pending node of a search: a frame of the k-NN forward/backward
// visit (Table I), or a node a range search has still to expand (status
// and the fields below unused).
//
// A k-NN routing frame is expanded on its host partition, which records
// here what the rest of its visit needs: the far child, the split
// dimension and the plane gap |P[Sr] - Sv|. The backward visit and the
// pop then run on whichever partition holds the item (DESIGN.md §6).
struct KnnFrame {
  int32_t partition = -1;
  int32_t node = -1;
  VisitStatus status = VisitStatus::kNotVisited;
  uint32_t split_dim = 0;  // Sr.
  ChildRef far = {};       // The child across the plane.
  double gap = 0.0;        // |P[Sr] - Sv|.
  double restore = 0.0;    // The item's gap[Sr] before the far side.
};

// The work item of the one search protocol (kSearchMsg). The whole
// traversal state travels inside it, so any partition can continue it:
//  * k-NN (§III-B.3): the item is *forwarded* only to a partition that
//    must expand its top frame, like an insertion, and it answers the
//    caller from wherever its stack drains. No compute node blocks on
//    another, so concurrent queries pipeline.
//  * Range (§III-B.4): the item walks one partition subtree. Each
//    remote child it reaches is handed back in `remote`, and the caller
//    re-issues those subtrees in parallel as fresh items, each with its
//    own budget (per partition subtree metering, semtree.h).
// The handler answers with the item itself.
struct SearchItem {
  uint32_t slot = 0;  // Position in the caller's batch.
  QueryType type = QueryType::kKnn;
  std::vector<double> query;
  size_t k = 0;                 // K of Table I (k-NN only).
  double radius = 0.0;          // D of §III-B.4 (range only).
  TravelBudget tb;              // Budget + spent counters, hop to hop.
  std::vector<Neighbor> rs;     // k-NN: max-heap Rs; range: members.
  std::vector<KnnFrame> stack;  // Pending nodes, root-side at the bottom.
  // k-NN: the query's per-dimension gap to the region of the top
  // frame's node (RegionLowerBound, core/kernels.h); all zero at the
  // root. Empty for range items.
  std::vector<double> gap;
  std::vector<ChildRef> remote;  // Range: subtrees for the caller.
  // Handler activations. Each was brought by one message, the request
  // or a forward, so the item cost this count plus its response.
  size_t partitions_visited = 0;
};
struct BuildPartitionRequest {};
struct BuildPartitionResponse {
  size_t leaves_moved = 0;
  std::vector<int32_t> new_partitions;
};
struct StatsRequest {
  // Multiplied into the partition's load counters *after* they are
  // reported, so the rebalancer's trigger tracks a recent window
  // (1.0 = pure read, used by AllPartitionStats/DebugStats).
  double decay = 1.0;
  bool include_subtrees = false;
};
struct StatsResponse {
  PartitionStats stats;
  std::vector<SubtreeInfo> subtrees;  // Only when include_subtrees.
};
// Builds one balanced subtree per block, each under a fresh root of
// the target partition: one region of a bulk load, one leaf moved by
// build-partition, or the halves of a split (DESIGN.md §12). The target
// adopts a root for every block before it builds any, so a fresh
// partition gives n blocks the roots 0 .. n-1. The tree total is the
// caller's to account.
struct BulkBuildRequest {
  std::vector<PointBlock> blocks;
  // The roots the subtrees must take, one per block, or empty for
  // whichever the target picks. Build-partition and the split link to
  // them before the target has run.
  std::vector<int32_t> roots;
};
struct BulkBuildResponse {
  std::vector<int32_t> roots;  // One per block.
};
// One routing node of the client-computed top-level skeleton. A child
// is either another skeleton node (index >= 0) or an already-built
// remote region (ChildRef).
struct SkeletonNode {
  uint32_t split_dim = 0;
  double split_value = 0.0;
  int32_t left_skeleton = -1;
  int32_t right_skeleton = -1;
  ChildRef left_ref;
  ChildRef right_ref;
};
struct InstallTopologyRequest {
  std::vector<SkeletonNode> skeleton;  // skeleton[0] becomes the root.
};
struct InstallTopologyResponse {
  bool ok = false;
  std::string error;
};
// Snapshot protocol: each partition serializes (or restores) itself on
// its own compute node; the client only assembles the per-partition
// blobs (one per partition, DESIGN.md §5).
struct SnapshotRequest {};
struct SnapshotResponse {
  std::string blob;
};
struct RestoreRequest {
  std::string blob;
  size_t partition_count = 0;  // ChildRef partition-id bound.
};
struct RestoreResponse {
  bool ok = false;
  std::string error;
};

// ---- Rebalance protocol (DESIGN.md §12) ----
//
// The split is the one rebalance request, sent by the client-side
// coordinator (SemTree::RebalanceTick). Like build-partition, its
// handler ships what it moves without waiting: no handler waits on
// another node (compute_node.h).

// Moves the fully-local subtree under `root` onto fresh seats in one
// activation of the source: cuts its points with ChooseSplitForPolicy,
// ships each half to a seat as an unawaited bulk build, and turns
// `root` into the routing node over the halves' roots.
struct SplitRequest {
  int32_t root = -1;
  SplitPolicy policy = SplitPolicy::kMedian;
};
struct SplitResponse {
  // The seats the halves went to, in creation order: one when both
  // halves share the last seat. Empty when nothing was split, and then
  // nothing was mutated.
  std::vector<int32_t> seats;
  uint64_t points_moved = 0;
};

inline size_t PointBytes(size_t dims) { return dims * sizeof(double) + 16; }

// Approximate wire size of a search item, for its request, forwards
// and response alike: the query and gap vectors, the result set, the
// frames and the handed-back subtrees. A range frame carries only its
// partition and node; a k-NN frame also carries its status, split
// dimension, far child and gaps.
inline size_t SearchItemBytes(const SearchItem& item) {
  const size_t frame_bytes = item.type == QueryType::kKnn
                                 ? sizeof(KnnFrame)
                                 : 2 * sizeof(int32_t);
  return (item.query.size() + item.gap.size()) * sizeof(double) +
         item.rs.size() * sizeof(Neighbor) +
         item.stack.size() * frame_bytes +
         item.remote.size() * sizeof(ChildRef) + 32;
}

}  // namespace protocol
}  // namespace semtree

#endif  // SEMTREE_SEMTREE_PROTOCOL_H_
