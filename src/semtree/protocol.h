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
constexpr uint32_t kAdoptLeafMsg = 5;
constexpr uint32_t kStatsMsg = 6;
constexpr uint32_t kRemoveMsg = 7;
constexpr uint32_t kBulkBuildMsg = 8;
constexpr uint32_t kInstallTopologyMsg = 9;
constexpr uint32_t kSnapshotMsg = 11;
constexpr uint32_t kRestoreMsg = 12;
// Online rebalancing (DESIGN.md §12).
constexpr uint32_t kSplitMsg = 13;
constexpr uint32_t kInstallSplitMsg = 19;

struct InsertRequest {
  int32_t start_node = 0;
  KdPoint point;
};
struct InsertResponse {
  bool ok = false;
  bool saturated = false;
  // The addressed node vanished mid-rebalance (dead or out of range):
  // nothing was stored; the client retries from the root against the
  // settled routing.
  bool stale = false;
  int32_t partition = -1;
  std::string error;
};
struct RemoveRequest {
  int32_t start_node = 0;
  KdPoint point;
};
struct RemoveResponse {
  bool found = false;
  bool stale = false;  // Same retry contract as InsertResponse::stale.
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
enum class VisitStatus : uint8_t {
  kNotVisited = 0,
  kNearVisited = 1,
  kAllVisited = 2,
};

// One pending node of a search: a frame of the k-NN forward/backward
// visit (Table I), or a node a range search has still to expand (status
// unused).
struct KnnFrame {
  int32_t partition = -1;
  int32_t node = -1;
  VisitStatus status = VisitStatus::kNotVisited;
};

// The work item of the one search protocol (kSearchMsg). The whole
// traversal state travels inside it, so any partition can continue it:
//  * k-NN (§III-B.3): the item is *forwarded* to whichever partition
//    hosts its top frame, like an insertion, and the partition where
//    the stack drains answers the caller. No compute node blocks on
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
// Leaf migration payload: one contiguous coordinate block per Fig. 2
// build-partition, not N small vectors.
struct AdoptLeafRequest {
  PointBlock block;
};
struct AdoptLeafResponse {
  int32_t root_node = 0;
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
// Builds a balanced subtree over the block under a fresh root of the
// target partition: one region of a bulk load, or one half of a split
// (DESIGN.md §12). The tree total is the client's to account.
struct BulkBuildRequest {
  PointBlock block;
};
struct BulkBuildResponse {
  int32_t root_node = -1;
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
// All rebalance requests are issued by the client-side coordinator
// (SemTree::RebalanceTick), never from inside a handler, so they add
// no nested-call edges to the partition DAG and cannot deadlock.

// Source-side split: copy the fully-local subtree under `root`, cut
// its points with ChooseSplitForPolicy, and return the two halves as
// contiguous blocks. Nothing is mutated: the subtree keeps serving
// until the install drains it.
struct SplitRequest {
  int32_t root = -1;
  SplitPolicy policy = SplitPolicy::kMedian;
};
struct SplitResponse {
  bool ok = false;
  std::string error;
  uint32_t split_dim = 0;
  double split_value = 0.0;
  PointBlock left;
  PointBlock right;
};

// Final step of a split: drain the subtree under `node` and convert
// `node` into a routing node over the two adopted halves, in one
// activation. The drained points come back so the coordinator can
// reconcile the writes that landed since the copy.
struct InstallSplitRequest {
  int32_t node = -1;
  uint32_t split_dim = 0;
  double split_value = 0.0;
  ChildRef left;
  ChildRef right;
};
struct InstallSplitResponse {
  bool ok = false;
  std::string error;
  PointBlock points;  // The drained subtree's points.
};

inline size_t PointBytes(size_t dims) { return dims * sizeof(double) + 16; }

// Approximate wire size of a search item, for its request, forwards
// and response alike.
inline size_t SearchItemBytes(const SearchItem& item) {
  return item.query.size() * sizeof(double) +
         item.rs.size() * sizeof(Neighbor) +
         item.stack.size() * sizeof(KnnFrame) +
         item.remote.size() * sizeof(ChildRef) + 32;
}

}  // namespace protocol
}  // namespace semtree

#endif  // SEMTREE_SEMTREE_PROTOCOL_H_
