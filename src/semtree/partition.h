// Copyright 2026 The SemTree Authors
//
// A SemTree partition: the subtree fragment hosted by one compute node.
// Children of a routing node are either local (same partition) or
// remote (another partition's root region); a routing node with at
// least one remote child is an *edge node*, otherwise it is *internal*
// (paper §III-B.1).
//
// Point coordinates live in the partition's flat PointStore arena; leaf
// buckets hold slot indices. Leaf migration (build-partition, Fig. 2)
// ships one contiguous PointBlock per leaf instead of N per-point
// vectors.

#ifndef SEMTREE_SEMTREE_PARTITION_H_
#define SEMTREE_SEMTREE_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/bulk_build.h"
#include "core/point.h"
#include "core/point_block.h"
#include "core/point_store.h"
#include "persist/wire.h"

namespace semtree {

/// Cross-partition child pointer: (Childp, node index). A reference is
/// local when `partition` equals the owning partition's id.
struct ChildRef {
  int32_t partition = -1;
  int32_t node = -1;

  bool valid() const { return partition >= 0 && node >= 0; }
};

/// Statistics of one partition, as reported by its stats handler.
struct PartitionStats {
  int32_t id = -1;
  size_t points = 0;       ///< Points stored in local leaf buckets.
  size_t nodes = 0;        ///< Live local nodes.
  size_t leaves = 0;       ///< Live local leaf nodes.
  size_t routing = 0;      ///< Live local routing nodes.
  size_t edge_nodes = 0;   ///< Routing nodes with a remote child.
  size_t local_depth = 0;  ///< Longest local root-to-edge path.

  /// Decayed load accounting (DESIGN.md §12): handler activations and
  /// leaf-scan distance computations charged to this partition. Only
  /// op traffic records load — bulk builds and snapshot/restore do
  /// not — and the counters ride the snapshot blob, so they survive
  /// partition-local rebuilds and warm restarts.
  double load_ops = 0.0;
  double load_distances = 0.0;
  /// Splits installed on this seat as their source; the seats that
  /// receive the halves do not count them.
  uint64_t rebalances = 0;

  std::string ToString() const;
};

/// One disjoint subtree of a partition (a roots_ entry), as inventoried
/// for the rebalancer: a subtree is only movable when `fully_local` —
/// every descendant lives in this partition, so draining it cannot
/// orphan a cross-partition edge.
struct SubtreeInfo {
  int32_t root = -1;
  uint64_t points = 0;
  uint64_t nodes = 0;
  bool fully_local = true;
};

/// The node arena of one partition. All mutation happens on the owning
/// compute node's worker thread; the class itself is not synchronized.
class Partition {
 public:
  using Slot = PointStore::Slot;

  Partition(int32_t id, size_t dimensions, size_t bucket_size)
      : id_(id),
        dimensions_(dimensions),
        bucket_size_(bucket_size),
        store_(dimensions) {
    roots_.push_back(NewLeaf());  // Node 0: this partition's root.
  }

  /// One KD-tree node hosted in this partition.
  struct PNode {
    bool is_leaf = true;
    bool is_dead = false;      // Drained by build-partition or a split.
    uint32_t split_dim = 0;    // Sr
    double split_value = 0.0;  // Sv
    ChildRef left;
    ChildRef right;
    std::vector<Slot> bucket;  // Slots into the partition's store.
  };

  int32_t id() const { return id_; }
  size_t dimensions() const { return dimensions_; }
  size_t bucket_size() const { return bucket_size_; }

  /// The flat coordinate arena of this partition.
  PointStore& store() { return store_; }
  const PointStore& store() const { return store_; }

  /// A partition may host several disjoint subtrees: its original root
  /// plus any leaves adopted from saturated partitions (build-partition
  /// distributes leaves round-robin, so one compute node can receive
  /// more than one), or both halves of a split that found only one
  /// seat left (DESIGN.md §12). The first root is node 0.
  const std::vector<int32_t>& roots() const { return roots_; }
  int32_t root_node() const { return roots_[0]; }

  /// Registers a fresh leaf as an additional subtree root (adoption
  /// target) and returns its index. Reuses the initial empty root when
  /// this partition has never stored anything.
  int32_t AdoptRoot();
  PNode& node(int32_t idx) { return nodes_[static_cast<size_t>(idx)]; }
  const PNode& node(int32_t idx) const {
    return nodes_[static_cast<size_t>(idx)];
  }
  size_t arena_size() const { return nodes_.size(); }

  /// Points currently stored in this partition's leaves.
  size_t points() const { return points_; }
  void AddPoints(size_t n) { points_ += n; }
  void RemovePoints(size_t n) { points_ -= std::min(points_, n); }

  /// Load accounting (DESIGN.md §12). Like every other partition
  /// field, the counters are mutated only on the owning worker thread
  /// (op handlers charge them; the stats handler reads and decays
  /// them), so plain doubles suffice.
  void RecordLoad(double ops, double distances) {
    load_ops_ += ops;
    load_distances_ += distances;
  }
  void DecayLoad(double factor) {
    load_ops_ *= factor;
    load_distances_ *= factor;
  }
  double load_ops() const { return load_ops_; }
  double load_distances() const { return load_distances_; }
  uint64_t rebalances() const { return rebalances_; }
  void BumpRebalances() { ++rebalances_; }

  /// Allocates a fresh local leaf and returns its index.
  int32_t NewLeaf() {
    nodes_.emplace_back();
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  /// Splits `leaf` into two local children if its bucket exceeds the
  /// bucket size and a separating dimension exists (Fig. 1). Buckets of
  /// fully duplicated points are left to overflow.
  void SplitLeafIfNeeded(int32_t leaf);

  /// Replaces the (empty leaf) node `root` with a balanced subtree
  /// over the block's points — the local half of the distributed bulk
  /// load, built through the two-phase plan builder
  /// (core/bulk_build.h) under `opts`' split policy and thread count
  /// (opts.bucket_size is overridden by this partition's). The node
  /// arena is byte-identical whatever opts.build_threads says. Point
  /// accounting is updated.
  void BuildBalancedLocal(int32_t root, const PointBlock& block,
                          const BulkBuildOptions& opts = {});

  /// Copies the block's rows into this partition's arena and appends
  /// their slots to `leaf`'s bucket. Point accounting is updated.
  void AbsorbBlock(int32_t leaf, const PointBlock& block);

  /// Gathers `leaf`'s bucket into one contiguous migration payload,
  /// releasing the arena rows and emptying the bucket. Point accounting
  /// is NOT touched (the caller decides when the move is committed).
  PointBlock ExtractLeafBlock(int32_t leaf);

  /// Live local leaves reachable from any of the partition's roots,
  /// each with its parent routing node (-1 for roots themselves) and
  /// the side it hangs off (true = left).
  struct LeafLocation {
    int32_t leaf;
    int32_t parent;
    bool is_left;
  };
  std::vector<LeafLocation> LocalLeaves() const;

  /// Inventories this partition's live subtrees (one entry per live
  /// roots_ entry) for the rebalancer's candidate selection.
  std::vector<SubtreeInfo> Subtrees() const;

  /// Collects the slots of every live point under `root` into `out`,
  /// in DFS order. Returns false — without touching `out`'s validity
  /// for the caller — when the subtree is not fully local (a remote
  /// child edge makes it unmovable).
  bool SubtreeLocalSlots(int32_t root, std::vector<Slot>* out) const;

  /// Detaches the (fully local) subtree under `root`: every live
  /// descendant is marked dead with its bucket released, and `root`
  /// itself becomes an empty live leaf. The caller must have copied
  /// the points out first (SubtreeLocalSlots) and owns the point
  /// accounting, mirroring ExtractLeafBlock.
  void DetachSubtree(int32_t root);

  /// Local statistics (traverses the live local subtree).
  PartitionStats Stats() const;

  /// Serializes this partition — node arena, roots, buckets, point
  /// count, coordinate store — into one snapshot blob. Runs on the
  /// owning compute node's worker (the snapshot protocol handler), so
  /// it sees a quiescent partition.
  void SaveTo(persist::ByteWriter* out) const;

  /// Replaces all state with a saved blob's. `expected_partitions`
  /// bounds the ChildRef partition ids the blob may reference.
  Status RestoreFrom(persist::ByteReader* in, size_t expected_partitions);

 private:
  int32_t id_;
  size_t dimensions_;
  size_t bucket_size_;
  PointStore store_;
  std::vector<PNode> nodes_;
  std::vector<int32_t> roots_;
  size_t points_ = 0;
  // Decayed load counters + split-install count (DESIGN.md §12).
  // Worker-thread confined, like everything above.
  double load_ops_ = 0.0;
  double load_distances_ = 0.0;
  uint64_t rebalances_ = 0;
};

}  // namespace semtree

#endif  // SEMTREE_SEMTREE_PARTITION_H_
