// Copyright 2026 The SemTree Authors

#include "semtree/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "core/split.h"
#include "persist/snapshot.h"

namespace semtree {

std::string PartitionStats::ToString() const {
  return StringPrintf(
      "Partition{id=%d points=%zu nodes=%zu leaves=%zu routing=%zu "
      "edge=%zu depth=%zu load_ops=%.1f load_dist=%.1f reb=%llu}",
      id, points, nodes, leaves, routing, edge_nodes, local_depth,
      load_ops, load_distances, (unsigned long long)rebalances);
}

void Partition::SplitLeafIfNeeded(int32_t leaf) {
  if (nodes_[static_cast<size_t>(leaf)].bucket.size() <= bucket_size_) {
    return;
  }
  BucketSplit split;
  if (!ChooseBucketSplit(nodes_[static_cast<size_t>(leaf)].bucket,
                         dimensions_,
                         [this](Slot s) { return store_.CoordsAt(s); },
                         &split)) {
    return;  // Identical points: allow overflow.
  }
  int32_t left = NewLeaf();
  int32_t right = NewLeaf();
  PNode& n = nodes_[static_cast<size_t>(leaf)];  // Re-take: realloc.
  for (Slot s : n.bucket) {
    PNode& child = nodes_[static_cast<size_t>(
        store_.CoordsAt(s)[split.dim] <= split.value ? left : right)];
    child.bucket.push_back(s);
  }
  n.bucket.clear();
  n.bucket.shrink_to_fit();
  n.is_leaf = false;
  n.split_dim = split.dim;
  n.split_value = split.value;
  n.left = ChildRef{id_, left};
  n.right = ChildRef{id_, right};
}

std::vector<int32_t> Partition::AdoptRoots(size_t count) {
  std::vector<int32_t> out;
  // Reuse the pristine initial root so adopted partitions do not keep
  // an orphan empty leaf around.
  if (count > 0 && pristine()) out.push_back(roots_[0]);
  while (out.size() < count) {
    out.push_back(NewLeaf());
    roots_.push_back(out.back());
  }
  return out;
}

PointBlock Partition::ExtractLeafBlock(int32_t leaf) {
  PNode& n = nodes_[static_cast<size_t>(leaf)];
  PointBlock block(dimensions_);
  block.Reserve(n.bucket.size());
  for (Slot s : n.bucket) {
    block.Append(store_.CoordsAt(s), store_.IdAt(s));
    store_.Release(s);
  }
  n.bucket.clear();
  n.bucket.shrink_to_fit();
  return block;
}

void Partition::BuildBalancedLocal(int32_t root, const PointBlock& block,
                                   const BulkBuildOptions& opts) {
  size_t count = block.size();
  // Copy the block into this partition's arena first; the build then
  // works purely over slot indices.
  store_.Reserve(count);
  std::vector<Slot> slots;
  slots.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    slots.push_back(store_.Append(block.Row(i), block.ids[i]));
  }
  if (count > 0) {
    // Phase 1: plan the subtree (possibly across opts.build_threads
    // workers; the plan is scheduling-independent, core/bulk_build.h).
    BulkBuildOptions build = opts;
    build.bucket_size = bucket_size_;
    const PointStore& store = store_;
    std::unique_ptr<KdPlanNode> plan =
        BuildKdPlan(slots, dimensions_,
                    [&store](Slot s) { return store.CoordsAt(s); }, build);
    // Phase 2: emit serially, replicating the historical arena layout:
    // both children of a routing node are allocated before either
    // subtree is descended, the parent PNode is filled after both, and
    // `root` is finalized last.
    struct Emitter {
      Partition* part;
      const std::vector<Slot>& slots;

      void Emit(int32_t node, const KdPlanNode& p) {
        if (p.is_leaf) {
          part->node(node).bucket.assign(
              slots.begin() + static_cast<ptrdiff_t>(p.lo),
              slots.begin() + static_cast<ptrdiff_t>(p.hi));
          return;
        }
        int32_t left = part->NewLeaf();
        int32_t right = part->NewLeaf();
        Emit(left, *p.left);
        Emit(right, *p.right);
        PNode& pn = part->node(node);
        pn.is_leaf = false;
        pn.split_dim = p.split_dim;
        pn.split_value = p.split_value;
        pn.left = ChildRef{part->id(), left};
        pn.right = ChildRef{part->id(), right};
      }
    };
    Emitter{this, slots}.Emit(root, *plan);
  }
  AddPoints(count);
}

template <typename Visit>
bool Partition::WalkLocal(const std::vector<int32_t>& starts,
                          Visit visit) const {
  std::vector<WalkFrame> stack;
  for (int32_t start : starts) stack.push_back({start, -1, false, 0});
  while (!stack.empty()) {
    const WalkFrame f = stack.back();
    stack.pop_back();
    const PNode& n = nodes_[static_cast<size_t>(f.node)];
    if (n.is_dead) continue;
    const bool routing = !n.is_leaf;
    const ChildRef left = n.left;
    const ChildRef right = n.right;
    if (!visit(f, n)) return false;
    if (!routing) continue;
    if (left.partition == id_) {
      stack.push_back({left.node, f.node, true, f.depth + 1});
    }
    if (right.partition == id_) {
      stack.push_back({right.node, f.node, false, f.depth + 1});
    }
  }
  return true;
}

std::vector<SubtreeInfo> Partition::Subtrees() const {
  std::vector<SubtreeInfo> out;
  for (int32_t root : roots_) {
    if (nodes_[static_cast<size_t>(root)].is_dead) continue;
    SubtreeInfo info;
    info.root = root;
    WalkLocal({root}, [&](const WalkFrame&, const PNode& n) {
      ++info.nodes;
      if (n.is_leaf) {
        info.points += n.bucket.size();
      } else if (n.left.partition != id_ || n.right.partition != id_) {
        info.fully_local = false;
      }
      return true;
    });
    out.push_back(info);
  }
  return out;
}

bool Partition::SubtreeLocalSlots(int32_t root,
                                  std::vector<Slot>* out) const {
  return WalkLocal({root}, [&](const WalkFrame&, const PNode& n) {
    if (n.is_leaf) {
      out->insert(out->end(), n.bucket.begin(), n.bucket.end());
      return true;
    }
    return n.left.partition == id_ && n.right.partition == id_;
  });
}

void Partition::DetachSubtree(int32_t root) {
  WalkLocal({root}, [&](const WalkFrame& f, const PNode&) {
    PNode& n = nodes_[static_cast<size_t>(f.node)];
    for (Slot s : n.bucket) store_.Release(s);
    n.bucket.clear();
    n.bucket.shrink_to_fit();
    if (f.node == root) {
      n.is_leaf = true;
      n.left = ChildRef{};
      n.right = ChildRef{};
    } else {
      n.is_dead = true;
    }
    return true;
  });
}

void Partition::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(dimensions_);
  out->PutU64(bucket_size_);
  out->PutU64(points_);
  persist::WritePointStore(store_, out);
  out->PutU64(roots_.size());
  for (int32_t root : roots_) out->PutI32(root);
  out->PutU64(nodes_.size());
  for (const PNode& n : nodes_) {
    out->PutU8(static_cast<uint8_t>((n.is_leaf ? 1 : 0) |
                                    (n.is_dead ? 2 : 0)));
    out->PutU32(n.split_dim);
    out->PutDouble(n.split_value);
    out->PutI32(n.left.partition);
    out->PutI32(n.left.node);
    out->PutI32(n.right.partition);
    out->PutI32(n.right.node);
    out->PutU32Array(n.bucket);
  }
  // Load-counter tail (DESIGN.md §12), appended after the node arena
  // so pre-rebalancer blobs (which simply end here) still restore: the
  // reader probes AtEnd() on the length-framed blob.
  out->PutDouble(load_ops_);
  out->PutDouble(load_distances_);
  out->PutU64(rebalances_);
}

Status Partition::RestoreFrom(persist::ByteReader* in,
                              size_t expected_partitions) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t dimensions, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t bucket_size, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t points, in->U64());
  if (dimensions != dimensions_ || bucket_size != bucket_size_) {
    return Status::Corruption(
        "partition blob disagrees with tree options");
  }
  SEMTREE_ASSIGN_OR_RETURN(PointStore store, persist::ReadPointStore(in));
  if (store.dimensions() != dimensions_) {
    return Status::Corruption("partition arena dimensionality mismatch");
  }
  SEMTREE_ASSIGN_OR_RETURN(uint64_t root_count, in->U64());
  SEMTREE_RETURN_NOT_OK(in->CheckCount(root_count, 4));
  std::vector<int32_t> roots;
  roots.reserve(root_count);
  for (uint64_t i = 0; i < root_count; ++i) {
    SEMTREE_ASSIGN_OR_RETURN(int32_t root, in->I32());
    roots.push_back(root);
  }
  SEMTREE_ASSIGN_OR_RETURN(uint64_t node_count, in->U64());
  if (root_count == 0 || node_count == 0) {
    return Status::Corruption("partition blob has no nodes");
  }
  for (int32_t root : roots) {
    if (root < 0 || uint64_t(root) >= node_count) {
      return Status::Corruption("partition root out of range");
    }
  }
  auto check_ref = [&](const ChildRef& ref) {
    if (ref.partition < 0 ||
        size_t(ref.partition) >= expected_partitions || ref.node < 0) {
      return false;
    }
    // Local child nodes must exist; remote node indices are validated
    // by the partition that hosts them.
    return ref.partition != id_ || uint64_t(ref.node) < node_count;
  };
  // 37 = serialized bytes of an empty node.
  SEMTREE_RETURN_NOT_OK(in->CheckCount(node_count, 37));
  std::vector<PNode> nodes;
  nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    PNode n;
    SEMTREE_ASSIGN_OR_RETURN(uint8_t flags, in->U8());
    n.is_leaf = (flags & 1) != 0;
    n.is_dead = (flags & 2) != 0;
    SEMTREE_ASSIGN_OR_RETURN(n.split_dim, in->U32());
    SEMTREE_ASSIGN_OR_RETURN(n.split_value, in->Double());
    SEMTREE_ASSIGN_OR_RETURN(n.left.partition, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.left.node, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.right.partition, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.right.node, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.bucket, in->U32Array());
    if (!n.is_leaf && !n.is_dead &&
        (n.split_dim >= dimensions_ || !check_ref(n.left) ||
         !check_ref(n.right))) {
      return Status::Corruption("partition routing node malformed");
    }
    nodes.push_back(std::move(n));
  }
  // The live leaves must own the arena's live slots.
  std::vector<const std::vector<Slot>*> leaves;
  for (const PNode& n : nodes) {
    if (n.is_leaf && !n.is_dead) leaves.push_back(&n.bucket);
  }
  SEMTREE_RETURN_NOT_OK(
      persist::CheckSlotOwnership(store, leaves, "partition"));
  // Optional load-counter tail: absent in pre-rebalancer blobs, in
  // which case the partition keeps its current counters (so a
  // partition-local rebuild from an old blob does not zero the load
  // the rebalancer is tracking).
  double load_ops = load_ops_;
  double load_distances = load_distances_;
  uint64_t rebalances = rebalances_;
  if (!in->AtEnd()) {
    SEMTREE_ASSIGN_OR_RETURN(load_ops, in->Double());
    SEMTREE_ASSIGN_OR_RETURN(load_distances, in->Double());
    SEMTREE_ASSIGN_OR_RETURN(rebalances, in->U64());
  }
  store_ = std::move(store);
  nodes_ = std::move(nodes);
  roots_ = std::move(roots);
  points_ = points;
  load_ops_ = load_ops;
  load_distances_ = load_distances;
  rebalances_ = rebalances;
  return Status::OK();
}

std::vector<Partition::LeafLocation> Partition::LocalLeaves() const {
  std::vector<LeafLocation> out;
  WalkLocal(roots_, [&](const WalkFrame& f, const PNode& n) {
    if (n.is_leaf) out.push_back(LeafLocation{f.node, f.parent, f.is_left});
    return true;
  });
  return out;
}

PartitionStats Partition::Stats() const {
  PartitionStats stats;
  stats.id = id_;
  stats.points = points_;
  stats.load_ops = load_ops_;
  stats.load_distances = load_distances_;
  stats.rebalances = rebalances_;
  stats.pristine = pristine();
  WalkLocal(roots_, [&](const WalkFrame& f, const PNode& n) {
    ++stats.nodes;
    stats.local_depth = std::max(stats.local_depth, f.depth);
    if (n.is_leaf) {
      ++stats.leaves;
    } else {
      ++stats.routing;
      if (n.left.partition != id_ || n.right.partition != id_) {
        ++stats.edge_nodes;
      }
    }
    return true;
  });
  return stats;
}

}  // namespace semtree
