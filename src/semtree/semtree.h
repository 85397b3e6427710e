// Copyright 2026 The SemTree Authors
//
// SemTree: the distributed KD-tree of the paper (§III-B). The tree is
// split into partitions, each hosted by a compute node of the simulated
// cluster; navigation crosses partitions only through messages.
//
// Protocol (paper §III-B.1–4):
//  * Insert — starts at the root node of the root partition; navigation
//    compares P[Sr] with Sv. When the target child lives in another
//    partition (Cp != Childp), the request is *forwarded* there; the
//    final partition answers the client directly. Saturated leaf
//    buckets split into two local children (Fig. 1).
//  * Build partition — when a partition's resource condition trips,
//    every local leaf is migrated to a newly created partition and a
//    direct link is installed (Fig. 2); some partitions end up pure
//    routing, others store data.
//  * K-nearest — forward navigation to a leaf, then a backward visit
//    deciding for each node whether the unexplored subtree must be
//    entered: |max(Rs) - P| > |P[Sr] - Sv| or |Rs| < K. Two deviations
//    (DESIGN.md §6): the plane gap is replaced by the region bound, the
//    metric distance over the query's per-dimension gaps to the far
//    region, which is never smaller; and the test is `<=`, so a far
//    point at exactly max(Rs) that the (distance, id) order keeps is
//    still offered. The traversal state — the result set Rs, the gap
//    vector, and per-node status S in {Not Visited, near-side Visited,
//    All Visited} (Table I) — travels inside the work item. The item is
//    *forwarded* like an insertion, but only to a partition that must
//    expand a node; backward visits run wherever the item is, and it
//    answers from wherever its stack drains. No compute node blocks on
//    another, so concurrent queries pipeline across the cluster.
//  * Range — descends both children when |P[Sr] - Sv| <= D. A partition
//    walks its local subtree and hands each remote child back to the
//    caller, which runs those subqueries in parallel and merges the
//    partial result sets: the waiting happens at the caller, never in a
//    partition handler.
// Both travel as one work item type through one handler and one client
// loop (protocol.h's SearchItem, BatchSearch below).

#ifndef SEMTREE_SEMTREE_SEMTREE_H_
#define SEMTREE_SEMTREE_SEMTREE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/point.h"
#include "core/point_block.h"
#include "core/query.h"
#include "core/split.h"
#include "persist/wire.h"
#include "semtree/partition.h"
#include "semtree/rebalance.h"

namespace semtree {

namespace protocol {
struct StatsRequest;
struct StatsResponse;
}  // namespace protocol

struct SemTreeOptions {
  /// Dimensionality of the embedded space.
  size_t dimensions = 8;

  /// Leaf bucket capacity Bs.
  size_t bucket_size = 32;

  /// Upper bound on partitions (compute nodes). 1 = fully local tree.
  size_t max_partitions = 1;

  /// The resource condition deciding when a partition is saturated,
  /// statically fixed (paper §III-B.1): it saturates once it stores at
  /// least this many points.
  size_t partition_capacity = SIZE_MAX;

  /// One-way network latency of the simulated interconnect.
  std::chrono::microseconds network_latency{0};

  /// How bulk loads cut nodes (core/split.h): the paper's median split
  /// or clustering-guided centroid splits (core/bulk_build.h). Applies
  /// to the client-side region splitter AND every partition's local
  /// balanced build; incremental insertion always splits overflowing
  /// buckets by median.
  SplitPolicy split_policy = SplitPolicy::kMedian;

  /// Worker threads for each partition's local balanced build:
  /// 1 = serial (default), 0 = one per hardware thread, n = exactly n.
  /// The built tree is byte-identical across all values (DESIGN.md §8).
  size_t build_threads = 1;

  /// Caps the data partitions BulkLoadBalanced spreads the corpus
  /// over; 0 = auto (max_partitions - 1, the historical behavior).
  /// Setting it below max_partitions - 1 leaves seats for the online
  /// rebalancer to split onto (DESIGN.md §12).
  size_t bulk_load_partitions = 0;

  /// Online rebalancer policy (semtree/rebalance.h). The rebalancer
  /// only runs when RebalanceTick/StartRebalancer is called.
  RebalanceOptions rebalance;
};

/// Outcome counters for a distributed search (network cost included).
/// `messages` counts the search's own requests, forwards and responses,
/// taken from its work items, so concurrent clients do not pollute it.
/// `truncated` mirrors SearchStats::truncated (core/point.h): the
/// query's SearchBudget ran out, or epsilon pruning skipped a subtree
/// an exact search would have entered, somewhere in the cluster.
struct DistributedSearchStats {
  size_t partitions_visited = 0;  ///< Partition handler activations.
  uint64_t messages = 0;
  bool truncated = false;
};

/// The distributed index. Create once, then use from any thread:
/// partition state is only ever touched by its compute node's handlers,
/// which run one at a time.
class SemTree {
 public:
  /// Builds an empty SemTree (one root partition on one compute node).
  static Result<std::unique_ptr<SemTree>> Create(SemTreeOptions options);

  ~SemTree();
  SemTree(const SemTree&) = delete;
  SemTree& operator=(const SemTree&) = delete;

  /// Inserts one point (distributed insertion, §III-B.1). Triggers
  /// build-partition when the receiving partition saturates.
  Status Insert(const std::vector<double>& coords, PointId id);

  /// Row-pointer form: inserts `dims` coordinates without requiring an
  /// owning vector (used when feeding from a flat arena).
  Status Insert(const double* coords, size_t dims, PointId id);

  /// Inserts many points using `client_threads` concurrent clients
  /// ("using M-1 data partitions we can perform M-1 parallel
  /// operations", §III-C).
  Status BulkInsert(const PointBlock& points, size_t client_threads = 1);
  Status BulkInsert(const std::vector<KdPoint>& points,
                    size_t client_threads = 1);

  /// Bulk loads an *empty* tree ("Kd-trees are more efficient in
  /// bulk-loading situations", §III-B): the corpus is median-split
  /// client-side into one region per available data partition, every
  /// region is shipped as one contiguous PointBlock and built as a
  /// balanced subtree on its own compute node in parallel, and the
  /// routing skeleton is installed in the root partition. Fails with
  /// FailedPrecondition, before building or counting anything, unless
  /// the tree is fresh: one partition whose root has never held a point
  /// (Partition::pristine). A tree emptied by removes is not fresh: it
  /// keeps the routing nodes its inserts split. The size grows only
  /// once the load is linked from the root.
  Status BulkLoadBalanced(PointBlock points);
  Status BulkLoadBalanced(std::vector<KdPoint> points);

  /// Removes a stored point (extension; the paper leaves deletion as
  /// future work, noting Kd-tree modification is "non-trivial"). The
  /// request is forwarded across partitions exactly like an insertion;
  /// the point is erased from its leaf bucket and the routing
  /// structure is retained. Returns NotFound if absent.
  Status Remove(const std::vector<double>& coords, PointId id);

  /// Distributed k-nearest query (§III-B.3). Results sorted by
  /// ascending distance, ties by id. The SearchBudget travels inside
  /// the work-item message together with its spent-so-far counters, so
  /// the cap is enforced globally across partition hops (not per
  /// partition); an exact budget reproduces the budget-less protocol
  /// run message-for-message. Truncation is reported through
  /// `stats->truncated`.
  Result<std::vector<Neighbor>> KnnSearch(
      const std::vector<double>& query, size_t k,
      const SearchBudget& budget,
      DistributedSearchStats* stats = nullptr) const;
  Result<std::vector<Neighbor>> KnnSearch(
      const std::vector<double>& query, size_t k,
      DistributedSearchStats* stats = nullptr) const {
    return KnnSearch(query, k, SearchBudget{}, stats);
  }

  /// Distributed range query (§III-B.4). Because the remote subqueries
  /// of a range search run in parallel (no traversal state travels
  /// between them), the budget is enforced *per partition subtree* —
  /// each subquery meters its own partition's work independently —
  /// rather than globally. A cap that runs out cuts short only that
  /// subquery's local walk; the remote subtrees it reaches still run.
  /// BatchSearch meters range queries the same way.
  Result<std::vector<Neighbor>> RangeSearch(
      const std::vector<double>& query, double radius,
      const SearchBudget& budget,
      DistributedSearchStats* stats = nullptr) const;
  Result<std::vector<Neighbor>> RangeSearch(
      const std::vector<double>& query, double radius,
      DistributedSearchStats* stats = nullptr) const {
    return RangeSearch(query, radius, SearchBudget{}, stats);
  }

  /// Executes a batch of mixed k-NN/range queries, all in flight at
  /// once. Nothing is coalesced: every query travels as its own work
  /// item, so the batch costs exactly the messages of its queries sent
  /// one by one. Results are positionally aligned with `queries` and
  /// identical to issuing each query through KnnSearch/RangeSearch
  /// with the same SearchBudget (SpatialQuery::budget): global across
  /// partition hops for k-NN, per partition subtree for range.
  /// `truncated`, if given, receives one flag per query (nonzero = that
  /// result may be missing members). `stats`, if given, aggregates over
  /// the batch.
  Result<std::vector<std::vector<Neighbor>>> BatchSearch(
      const std::vector<SpatialQuery>& queries,
      DistributedSearchStats* stats = nullptr,
      std::vector<uint8_t>* truncated = nullptr) const;

  /// Total points stored across partitions.
  size_t size() const { return total_points_.load(); }

  size_t PartitionCount() const;
  const SemTreeOptions& options() const { return options_; }

  /// Per-partition statistics, fetched over the message protocol in
  /// one stats round and indexed by partition id; empty if the cluster
  /// shut down during the round.
  std::vector<PartitionStats> AllPartitionStats() const;

  /// One bounded rebalance pass (DESIGN.md §12): reads the decayed
  /// per-partition load counters in one stats round and splits at most
  /// ONE subtree of the hottest overloaded partition onto fresh seats.
  /// Once every seat up to max_partitions is taken, a pass only reads
  /// (and decays) the counters. Runs concurrently with readers and
  /// writers; thread-safe (at most one pass at a time). Returns OK when
  /// nothing qualified.
  Status RebalanceTick();

  /// Spawns a background thread calling RebalanceTick every
  /// options().rebalance.interval. FailedPrecondition if running.
  Status StartRebalancer();

  /// Stops and joins the background rebalancer. Idempotent; called by
  /// the destructor before the cluster shuts down.
  void StopRebalancer();

  /// Monotone counter bumped at the start AND end of every structural
  /// rebalance action (odd = a step is in flight). Cache layers add it
  /// to their own mutation epoch so entries cached mid-step can never
  /// be served once the routing has settled (engine/query_engine.cc).
  uint64_t rebalance_epoch() const {
    return rebalance_epoch_.load(std::memory_order_acquire);
  }

  /// Observability snapshot: per-partition stats (sizes + load
  /// counters) and the rebalance counters.
  SemTreeDebugStats DebugStats() const;

  /// Interconnect statistics.
  ClusterStats NetworkStats() const { return cluster_->Stats(); }

  /// Structural check across all partitions: every stored point lies
  /// inside the region induced by its ancestors' splits (including
  /// cross-partition edges), and point counts reconcile. Must only be
  /// called when no operations are in flight.
  Status CheckInvariants() const;

  /// Serializes the whole tree for the v2 snapshot (DESIGN.md §5):
  /// metadata plus one blob per partition, each produced by that
  /// partition's compute node over the snapshot protocol — the same
  /// fan-out discipline as every other cross-partition interaction.
  /// Must only be called when no operations are in flight.
  Status SaveTo(persist::ByteWriter* out) const;

  /// Reassembles a saved tree: partitions (and their compute nodes)
  /// are recreated and every blob ships back to its node for restore —
  /// no re-insertion, no rebuild. A compute node owns no thread, so
  /// the snapshot's partition count does not set the thread count.
  /// `runtime` supplies the deployment knobs (latency, partition
  /// capacity, extra partition headroom); dimensions and bucket size
  /// come from the snapshot.
  static Result<std::unique_ptr<SemTree>> LoadFrom(
      persist::ByteReader* in, SemTreeOptions runtime = {});

 private:
  explicit SemTree(SemTreeOptions options);

  /// Allocates a new partition and the compute node, with the same id,
  /// that runs its handlers; -1 if max_partitions is reached.
  /// Thread-safe; takes Cluster::nodes_mu_ inside partitions_mu_.
  int32_t CreatePartition();

  Partition* partition(int32_t id) const;
  bool IsSaturated(const Partition& partition) const;

  // Ships `blocks` from partition `from` to partition `seat` as one
  // unawaited bulk build whose subtrees take the roots first_root,
  // first_root + 1, ..., and returns the links to them. The caller
  // installs the links in the same activation: the seat's FIFO queue
  // runs the build before anything the caller forwards through them
  // (DESIGN.md §2).
  std::vector<ChildRef> ShipToSeat(int32_t from, int32_t seat,
                                   int32_t first_root,
                                   std::vector<PointBlock> blocks);

  // One stats round: sends `req` to every partition in `ids` at once
  // and returns the answers in the same order. Unavailable if the
  // cluster shut down or a partition left the request unanswered.
  Result<std::vector<protocol::StatsResponse>> StatsRound(
      const std::vector<int32_t>& ids,
      const protocol::StatsRequest& req) const;

  // The handler of partition `p`'s compute node: dispatches on the
  // message type, and logs and drops an unknown one. Runs on whichever
  // thread holds the node, one message at a time (compute_node.h).
  void Handle(Partition* p, const Message& msg);
  void HandleInsert(Partition* p, const Message& msg);
  void HandleRemove(Partition* p, const Message& msg);
  void HandleSearch(Partition* p, const Message& msg);
  void HandleBuildPartition(Partition* p, const Message& msg);
  void HandleStats(Partition* p, const Message& msg);
  void HandleBulkBuild(Partition* p, const Message& msg);
  void HandleInstallTopology(Partition* p, const Message& msg);
  void HandleSnapshot(Partition* p, const Message& msg);
  void HandleRestore(Partition* p, const Message& msg);

  // The rebalance handler and coordinator (semtree/rebalance.cc).
  void HandleSplit(Partition* p, const Message& msg);

  // The coordinator's cluster-wide view for one tick: per-partition
  // stats (with load counters) and subtree inventories.
  struct LoadSnapshot {
    std::vector<PartitionStats> stats;             // By partition id.
    std::vector<std::vector<SubtreeInfo>> subtrees;  // By partition id.
    double total_score = 0.0;
    size_t active = 0;  // Partitions with data or routing load.
  };
  Result<LoadSnapshot> GatherLoad(double decay) const;
  // Splits one subtree when a partition qualifies and a seat is left;
  // OK when nothing qualified.
  Status TrySplit(const LoadSnapshot& snap) REQUIRES(rebalance_mu_);
  void RebalancerLoop();

  SemTreeOptions options_;
  std::unique_ptr<Cluster> cluster_;

  // The partition registry, append-only. No routing hop reads it:
  // each compute node's handler holds its own Partition*. Only
  // CreatePartition, partition() (CheckInvariants) and PartitionCount
  // touch it. A partition's state is confined to the thread that holds
  // its compute node (compute_node.h), and the pointers stay valid for
  // the tree's lifetime.
  mutable Mutex partitions_mu_;
  std::vector<std::unique_ptr<Partition>> partitions_
      GUARDED_BY(partitions_mu_);

  std::atomic<size_t> total_points_{0};

  // Rebalancer state (DESIGN.md §12). rebalance_mu_ serializes ticks
  // and guards the counters; when a tick runs a split or a
  // build-partition handler inline, which create partitions, it takes
  // partitions_mu_ *inside* rebalance_mu_ (never the reverse). The
  // epoch is read locklessly by cache layers.
  mutable Mutex rebalance_mu_;
  RebalanceCounters rebalance_counters_ GUARDED_BY(rebalance_mu_);
  std::atomic<uint64_t> rebalance_epoch_{0};

  // Background rebalancer thread (StartRebalancer/StopRebalancer).
  Mutex rebalancer_mu_;
  CondVar rebalancer_cv_;
  std::thread rebalancer_thread_;
  bool rebalancer_running_ GUARDED_BY(rebalancer_mu_) = false;
  bool rebalancer_stop_ GUARDED_BY(rebalancer_mu_) = false;
};

}  // namespace semtree

#endif  // SEMTREE_SEMTREE_SEMTREE_H_
