// Copyright 2026 The SemTree Authors
//
// Online skew-aware partition rebalancing (DESIGN.md §12).
//
// The coordinator runs client-side (RebalanceTick, optionally driven
// by a background thread): it reads the decayed per-partition load
// counters over the stats protocol and performs at most ONE structural
// action per tick —
//   * split:   the hottest overloaded partition copies its largest
//              fully-local subtree, the copy is cut with
//              ChooseSplitForPolicy and shipped as two PointBlocks to
//              idle seats, and only then is the subtree drained and its
//              root turned into a routing node over the two new halves;
//   * merge:   the coldest underloaded partition is folded back into
//              the partitions that point at it (subtree by subtree),
//              its seat returned to the free pool;
//   * migrate: a hot partition that cannot split (no movable subtree)
//              relocates wholesale onto a less-loaded seat, using the
//              per-partition snapshot blob as transfer format.
//
// Readers are never stopped. Every handler-side mutation happens in
// ONE handler activation on the owning worker thread, so concurrent
// traversals observe either the old or the new structure; frames
// captured across a rewrite hit dead/out-of-range nodes and are
// dropped (queries) or answered `stale` (inserts/removes, which retry
// from the root). Points that arrive in a window between drain and
// publish are collected as strands and re-inserted by the coordinator;
// a split reconciles the writes that land between its copy and its
// install the same way.
//
// Deadlock-freedom: rebalance RPCs are only ever issued from the
// coordinator thread, never from inside a handler, so they add no
// nested-call edges. (No search handler waits either; the one handler
// that does is build-partition, whose AdoptLeaf callees call nobody.)
//
// Seat order: every routing edge keeps pointing from a lower to a
// higher partition id (split targets are allocated above the source,
// merges fold into a parent, migration targets must sit between the
// partition's parents and children). Deadlock freedom does not need
// this; it is kept because it decides which seats a split lands on,
// and so the layout the rebalancer leaves (DESIGN.md §12).

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/bulk_build.h"
#include "persist/wire.h"
#include "semtree/protocol.h"
#include "semtree/semtree.h"

namespace semtree {

using namespace protocol;  // NOLINT(build/namespaces)

namespace {

// One partition's scalar "heat": distance computations dominate the
// cost of a leaf scan, handler activations stand in for routing and
// per-message overhead.
double LoadScore(const PartitionStats& s) {
  return s.load_distances + 8.0 * s.load_ops;
}

// Bumps the rebalance epoch on entry AND exit, so the epoch is odd
// exactly while a structural action is in flight (cache layers treat
// any change — including into-the-window — as an invalidation).
class EpochWindow {
 public:
  explicit EpochWindow(std::atomic<uint64_t>& epoch) : epoch_(epoch) {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  ~EpochWindow() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  EpochWindow(const EpochWindow&) = delete;
  EpochWindow& operator=(const EpochWindow&) = delete;

 private:
  std::atomic<uint64_t>& epoch_;
};

void InsertSorted(std::vector<int32_t>* seats, int32_t id) {
  seats->insert(std::upper_bound(seats->begin(), seats->end(), id), id);
}

// Copies the points behind `slots` out of `store` into one block.
PointBlock GatherSlots(const PointStore& store,
                       const std::vector<PointStore::Slot>& slots,
                       size_t begin, size_t end) {
  PointBlock block(store.dimensions());
  block.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    block.Append(store.CoordsAt(slots[i]), store.IdAt(slots[i]));
  }
  return block;
}

// The rows of `a` that `b` lacks, matching rows by id and coordinates
// as multisets.
PointBlock RowsMissingFrom(const PointBlock& a, const PointBlock& b) {
  auto less = [&](const PointView& x, const PointView& y) {
    if (x.id != y.id) return x.id < y.id;
    return std::lexicographical_compare(x.coords, x.coords + x.dim,
                                        y.coords, y.coords + y.dim);
  };
  auto sorted = [&](const PointBlock& block) {
    std::vector<PointView> rows;
    for (size_t i = 0; i < block.size(); ++i) rows.push_back(block.View(i));
    std::sort(rows.begin(), rows.end(), less);
    return rows;
  };
  const std::vector<PointView> ra = sorted(a);
  const std::vector<PointView> rb = sorted(b);
  std::vector<PointView> only;
  std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                      std::back_inserter(only), less);
  PointBlock out(a.dimensions);
  for (const PointView& v : only) out.Append(v.coords, v.id);
  return out;
}

}  // namespace

// --------------------------------------------------------------------
// Handler side (runs on the owning partition's worker thread)

void SemTree::RegisterRebalanceHandlers(Partition* part,
                                        ComputeNode* node) {
  node->RegisterHandler(kSplitMsg, [this, part](const Message& m) {
    HandleSplit(part, m);
  });
  node->RegisterHandler(kInstallSplitMsg, [this, part](const Message& m) {
    HandleInstallSplit(part, m);
  });
  node->RegisterHandler(kMergeMsg, [this, part](const Message& m) {
    HandleMerge(part, m);
  });
  node->RegisterHandler(kMigrateMsg, [this, part](const Message& m) {
    HandleMigrate(part, m);
  });
  node->RegisterHandler(kRetargetMsg, [this, part](const Message& m) {
    HandleRetarget(part, m);
  });
  node->RegisterHandler(kEvacuateMsg, [this, part](const Message& m) {
    HandleEvacuate(part, m);
  });
  node->RegisterHandler(kEdgesMsg, [this, part](const Message& m) {
    HandleEdges(part, m);
  });
}

void SemTree::HandleSplit(Partition* p, const Message& msg) {
  auto& req = PayloadAs<SplitRequest>(msg.payload);
  SplitResponse resp;
  auto fail = [&](const char* error) {
    resp.ok = false;
    resp.error = error;
    resp.left = PointBlock{};
    resp.right = PointBlock{};
    cluster_->Respond(msg, MakePayload<SplitResponse>(std::move(resp)),
                      64);
  };
  if (req.root < 0 ||
      static_cast<size_t>(req.root) >= p->arena_size() ||
      p->node(req.root).is_dead) {
    return fail("split root vanished");
  }
  // Read-only: the subtree stays in place, so readers keep finding its
  // points, until the install swaps in a routing node over the halves
  // built from this copy.
  std::vector<Partition::Slot> slots;
  if (!p->SubtreeLocalSlots(req.root, &slots)) {
    return fail("split subtree is not fully local");
  }
  if (slots.size() < 2) return fail("too few points to split");
  const PointStore& store = p->store();
  std::vector<uint32_t> order(slots.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  BulkBuildOptions cut_opts;
  cut_opts.policy = req.policy;
  cut_opts.bucket_size = 1;  // Any 2+ points are worth cutting.
  MedianSplit cut;
  if (!ChooseSplitForPolicy(
          order, 0, order.size(), store.dimensions(),
          [&](uint32_t i) { return store.CoordsAt(slots[i]); }, cut_opts,
          &cut)) {
    return fail("split subtree is inseparable (all points equal)");
  }
  resp.split_dim = cut.dim;
  resp.split_value = cut.value;
  resp.left = PointBlock(store.dimensions());
  resp.right = PointBlock(store.dimensions());
  resp.left.Reserve(cut.boundary);
  resp.right.Reserve(order.size() - cut.boundary);
  for (size_t i = 0; i < order.size(); ++i) {
    const Partition::Slot s = slots[order[i]];
    (i < cut.boundary ? resp.left : resp.right)
        .Append(store.CoordsAt(s), store.IdAt(s));
  }
  resp.ok = true;
  size_t bytes = resp.left.ApproxBytes() + resp.right.ApproxBytes();
  cluster_->Respond(msg, MakePayload<SplitResponse>(std::move(resp)),
                    bytes);
}

void SemTree::HandleInstallSplit(Partition* p, const Message& msg) {
  auto& req = PayloadAs<InstallSplitRequest>(msg.payload);
  InstallSplitResponse resp;
  auto fail = [&](const char* error) {
    resp.ok = false;
    resp.error = error;
    cluster_->Respond(
        msg, MakePayload<InstallSplitResponse>(std::move(resp)), 64);
  };
  if (req.node < 0 ||
      static_cast<size_t>(req.node) >= p->arena_size() ||
      p->node(req.node).is_dead) {
    return fail("install-split node vanished");
  }
  // Drain the subtree: its points are the copy the halves were built
  // from, give or take the writes that landed since.
  std::vector<Partition::Slot> slots;
  if (!p->SubtreeLocalSlots(req.node, &slots)) {
    return fail("install-split node grew a remote edge");
  }
  resp.points = GatherSlots(p->store(), slots, 0, slots.size());
  p->DetachSubtree(req.node);
  p->RemovePoints(slots.size());
  p->BumpRebalances();
  // Publish: one field-wise write on the owning worker — concurrent
  // traversals entering this node afterwards follow the new edges.
  Partition::PNode& n = p->node(req.node);
  n.is_leaf = false;
  n.split_dim = req.split_dim;
  n.split_value = req.split_value;
  n.left = req.left;
  n.right = req.right;
  resp.ok = true;
  size_t bytes = resp.points.ApproxBytes() + 64;
  cluster_->Respond(
      msg, MakePayload<InstallSplitResponse>(std::move(resp)), bytes);
}

void SemTree::HandleMerge(Partition* p, const Message& msg) {
  auto& req = PayloadAs<MergeRequest>(msg.payload);
  MergeResponse resp;
  auto fail = [&](const char* error) {
    resp.ok = false;
    resp.error = error;
    resp.block = PointBlock{};
    cluster_->Respond(msg, MakePayload<MergeResponse>(std::move(resp)),
                      64);
  };
  if (req.root < 0 ||
      static_cast<size_t>(req.root) >= p->arena_size() ||
      p->node(req.root).is_dead) {
    return fail("merge root vanished");
  }
  std::vector<Partition::Slot> slots;
  if (!p->SubtreeLocalSlots(req.root, &slots)) {
    return fail("merge subtree is not fully local");
  }
  resp.block = GatherSlots(p->store(), slots, 0, slots.size());
  p->DetachSubtree(req.root);
  p->RemovePoints(slots.size());
  if (req.kill) {
    // The root is unreachable now (its inbound edge was retargeted);
    // killing it turns any late-arriving insert into a stale retry
    // instead of a point stored in an abandoned node.
    p->node(req.root).is_dead = true;
  }
  p->BumpRebalances();
  resp.ok = true;
  size_t bytes = resp.block.ApproxBytes() + 64;
  cluster_->Respond(msg, MakePayload<MergeResponse>(std::move(resp)),
                    bytes);
}

void SemTree::HandleMigrate(Partition* p, const Message& msg) {
  auto& req = PayloadAs<MigrateRequest>(msg.payload);
  int32_t root = p->AdoptRoot();
  BulkBuildOptions build;
  build.policy = req.policy;
  build.build_threads = req.build_threads;
  // BuildBalancedLocal updates the partition's point accounting; the
  // tree total is untouched — these points moved, they were not added.
  p->BuildBalancedLocal(root, req.block, build);
  p->BumpRebalances();
  MigrateResponse resp;
  resp.root_node = root;
  cluster_->Respond(msg, MakePayload<MigrateResponse>(resp), 32);
}

void SemTree::HandleRetarget(Partition* p, const Message& msg) {
  auto& req = PayloadAs<RetargetRequest>(msg.payload);
  RetargetResponse resp;
  auto fail = [&](const char* error) {
    resp.ok = false;
    resp.error = error;
    cluster_->Respond(msg, MakePayload<RetargetResponse>(std::move(resp)),
                      64);
  };
  if (req.parent_node < 0 ||
      static_cast<size_t>(req.parent_node) >= p->arena_size() ||
      p->node(req.parent_node).is_dead) {
    return fail("retarget parent vanished");
  }
  Partition::PNode& n = p->node(req.parent_node);
  if (n.is_leaf) return fail("retarget parent is a leaf");
  (req.is_left ? n.left : n.right) = req.child;
  if (req.child.partition == p->id()) {
    // The child subtree became local (a merge folded it here): it is
    // now reachable through this edge, so keeping it registered as a
    // root would double-count it in every roots walk.
    p->UnregisterRoot(req.child.node);
  }
  resp.ok = true;
  cluster_->Respond(msg, MakePayload<RetargetResponse>(std::move(resp)),
                    32);
}

void SemTree::HandleEvacuate(Partition* p, const Message& msg) {
  auto& req = PayloadAs<EvacuateRequest>(msg.payload);
  EvacuateResponse resp;
  resp.points = p->points();
  if (req.want_blob) {
    persist::ByteWriter blob;
    p->SaveTo(&blob);
    resp.blob = blob.Take();
  }
  // Serialize + reset + kill in ONE activation: the blob and the
  // emptied seat cannot diverge, and anything still in this node's
  // mailbox behind us sees a dead arena → stale response → retry
  // against the (by then retargeted) routing.
  p->Reset();
  p->node(p->root_node()).is_dead = true;
  p->BumpRebalances();
  size_t bytes = resp.blob.size() + 32;
  cluster_->Respond(msg, MakePayload<EvacuateResponse>(std::move(resp)),
                    bytes);
}

void SemTree::HandleEdges(Partition* p, const Message& msg) {
  EdgesResponse resp;
  std::vector<int32_t> stack;
  for (int32_t root : p->roots()) stack.push_back(root);
  while (!stack.empty()) {
    int32_t idx = stack.back();
    stack.pop_back();
    const Partition::PNode& n = p->node(idx);
    if (n.is_dead || n.is_leaf) continue;
    if (n.left.partition == p->id()) {
      stack.push_back(n.left.node);
    } else {
      resp.edges.push_back(EdgeInfo{idx, true, n.left});
    }
    if (n.right.partition == p->id()) {
      stack.push_back(n.right.node);
    } else {
      resp.edges.push_back(EdgeInfo{idx, false, n.right});
    }
  }
  size_t bytes = resp.edges.size() * sizeof(EdgeInfo) + 32;
  cluster_->Respond(msg, MakePayload<EdgesResponse>(std::move(resp)),
                    bytes);
}

// --------------------------------------------------------------------
// Coordinator side (client thread, under rebalance_mu_)

Result<SemTree::LoadSnapshot> SemTree::GatherLoad(double decay) const {
  LoadSnapshot snap;
  size_t count = PartitionCount();
  snap.stats.resize(count);
  snap.subtrees.resize(count);

  std::vector<Cluster::OutboundCall> stat_calls;
  stat_calls.reserve(count);
  for (size_t id = 0; id < count; ++id) {
    StatsRequest req;
    req.decay = decay;
    req.include_subtrees = true;
    stat_calls.push_back(Cluster::OutboundCall{
        static_cast<NodeId>(id), kStatsMsg,
        MakePayload<StatsRequest>(req), 16});
  }
  std::vector<std::future<Payload>> stat_futures =
      cluster_->CallAll(std::move(stat_calls));
  for (size_t id = 0; id < count; ++id) {
    Payload payload = stat_futures[id].get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during rebalance");
    }
    auto& resp = PayloadAs<StatsResponse>(payload);
    snap.stats[id] = resp.stats;
    snap.subtrees[id] = resp.subtrees;
  }

  std::vector<Cluster::OutboundCall> edge_calls;
  edge_calls.reserve(count);
  for (size_t id = 0; id < count; ++id) {
    edge_calls.push_back(Cluster::OutboundCall{
        static_cast<NodeId>(id), kEdgesMsg,
        MakePayload<EdgesRequest>(EdgesRequest{}), 16});
  }
  std::vector<std::future<Payload>> edge_futures =
      cluster_->CallAll(std::move(edge_calls));
  for (size_t id = 0; id < count; ++id) {
    Payload payload = edge_futures[id].get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during rebalance");
    }
    for (const EdgeInfo& e : PayloadAs<EdgesResponse>(payload).edges) {
      snap.edges.push_back(EdgeLocation{static_cast<int32_t>(id),
                                        e.parent_node, e.is_left,
                                        e.child});
    }
  }

  for (const PartitionStats& s : snap.stats) {
    double score = LoadScore(s);
    if (s.points > 0 || score > 0.0) {
      snap.total_score += score;
      ++snap.active;
    }
  }
  return snap;
}

int32_t SemTree::AcquireSeat(int32_t above, int32_t below) {
  for (auto it = free_seats_.begin(); it != free_seats_.end(); ++it) {
    if (*it > above && *it < below) {
      int32_t id = *it;
      free_seats_.erase(it);
      return id;
    }
  }
  // Fresh partitions get the highest id, so they only qualify when the
  // downstream constraint is unbounded.
  if (below != std::numeric_limits<int32_t>::max()) return -1;
  return CreatePartition();  // -1 at max_partitions.
}

Status SemTree::ReinsertBlock(const PointBlock& block) {
  if (block.empty()) return Status::OK();
  // These strands never left the logical tree: Insert() will count
  // them again, so take them out of the total first.
  total_points_.fetch_sub(block.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < block.size(); ++i) {
    SEMTREE_RETURN_NOT_OK(
        Insert(block.Row(i), block.dimensions, block.ids[i]));
  }
  rebalance_counters_.strands_reinserted += block.size();
  return Status::OK();
}

Status SemTree::ReconcileCopy(const PointBlock& copied,
                              const PointBlock& drained) {
  SEMTREE_RETURN_NOT_OK(ReinsertBlock(RowsMissingFrom(drained, copied)));
  const PointBlock removed = RowsMissingFrom(copied, drained);
  // The removals already left the total when they hit the original:
  // add them back so removing the copies does not count them twice.
  total_points_.fetch_add(removed.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < removed.size(); ++i) {
    const double* row = removed.Row(i);
    SEMTREE_RETURN_NOT_OK(
        Remove(std::vector<double>(row, row + removed.dimensions),
               removed.ids[i]));
  }
  return Status::OK();
}

Result<bool> SemTree::TrySplit(const LoadSnapshot& snap) {
  const RebalanceOptions& opt = options_.rebalance;
  double mean =
      snap.total_score / static_cast<double>(std::max<size_t>(snap.active, 1));
  std::vector<char> is_free(snap.stats.size(), 0);
  for (int32_t s : free_seats_) is_free[static_cast<size_t>(s)] = 1;

  int32_t best = -1;
  int32_t best_root = -1;
  double best_score = 0.0;
  for (size_t id = 0; id < snap.stats.size(); ++id) {
    if (is_free[id]) continue;
    double score = LoadScore(snap.stats[id]);
    if (score < opt.split_load_factor * mean || score <= best_score) {
      continue;
    }
    // The largest movable subtree: fully local and big enough that the
    // two halves are each worth a partition.
    int32_t root = -1;
    uint64_t points = 0;
    for (const SubtreeInfo& st : snap.subtrees[id]) {
      if (st.fully_local && st.points >= opt.min_split_points &&
          st.points > points) {
        points = st.points;
        root = st.root;
      }
    }
    if (root < 0) continue;
    best = static_cast<int32_t>(id);
    best_root = root;
    best_score = score;
  }
  if (best < 0) return false;

  // Seats above the source keep edges pointing low → high. With only
  // one seat available both halves adopt into it (two roots).
  int32_t t1 = AcquireSeat(best, std::numeric_limits<int32_t>::max());
  if (t1 < 0) return false;
  int32_t t2 = AcquireSeat(best, std::numeric_limits<int32_t>::max());
  int32_t left_seat = t1;
  int32_t right_seat = t2 >= 0 ? t2 : t1;
  auto release_seats = [&]() {
    InsertSorted(&free_seats_, t1);
    if (t2 >= 0) InsertSorted(&free_seats_, t2);
  };

  EpochWindow window(rebalance_epoch_);
  SplitRequest sreq;
  sreq.root = best_root;
  sreq.policy = options_.split_policy;
  auto split_or = cluster_->CallAndWait(
      best, kSplitMsg, MakePayload<SplitRequest>(sreq), 32);
  if (!split_or.ok()) {
    release_seats();
    return split_or.status();
  }
  auto& sresp = PayloadAs<SplitResponse>(*split_or);
  if (!sresp.ok) {
    // Nothing was mutated (two-phase handler); the tick just found no
    // viable cut. Not an error: the next tick re-evaluates.
    release_seats();
    return false;
  }
  uint64_t moved = sresp.left.size() + sresp.right.size();
  // What the install will compare the drained subtree against.
  PointBlock copied = sresp.left;
  for (size_t i = 0; i < sresp.right.size(); ++i) {
    copied.Append(sresp.right.Row(i), sresp.right.ids[i]);
  }

  auto ship = [&](PointBlock block,
                  int32_t target) -> Result<int32_t> {
    MigrateRequest mreq;
    mreq.block = std::move(block);
    mreq.policy = options_.split_policy;
    mreq.build_threads = options_.build_threads;
    size_t bytes = mreq.block.ApproxBytes();
    SEMTREE_ASSIGN_OR_RETURN(
        Payload payload,
        cluster_->CallAndWait(target, kMigrateMsg,
                              MakePayload<MigrateRequest>(std::move(mreq)),
                              bytes));
    return PayloadAs<MigrateResponse>(payload).root_node;
  };
  SEMTREE_ASSIGN_OR_RETURN(int32_t left_root,
                           ship(std::move(sresp.left), left_seat));
  SEMTREE_ASSIGN_OR_RETURN(int32_t right_root,
                           ship(std::move(sresp.right), right_seat));

  InstallSplitRequest ireq;
  ireq.node = best_root;
  ireq.split_dim = sresp.split_dim;
  ireq.split_value = sresp.split_value;
  ireq.left = ChildRef{left_seat, left_root};
  ireq.right = ChildRef{right_seat, right_root};
  SEMTREE_ASSIGN_OR_RETURN(
      Payload ipayload,
      cluster_->CallAndWait(best, kInstallSplitMsg,
                            MakePayload<InstallSplitRequest>(ireq), 64));
  auto& iresp = PayloadAs<InstallSplitResponse>(ipayload);
  if (!iresp.ok) {
    return Status::Internal(
        StringPrintf("install-split failed: %s", iresp.error.c_str()));
  }
  SEMTREE_RETURN_NOT_OK(ReconcileCopy(copied, iresp.points));

  ++rebalance_counters_.splits;
  rebalance_counters_.points_moved += moved;
  return true;
}

Result<bool> SemTree::TryMerge(const LoadSnapshot& snap) {
  const RebalanceOptions& opt = options_.rebalance;
  double mean =
      snap.total_score / static_cast<double>(std::max<size_t>(snap.active, 1));
  std::vector<char> is_free(snap.stats.size(), 0);
  for (int32_t s : free_seats_) is_free[static_cast<size_t>(s)] = 1;

  // Inbound edges per (partition, root-node) target.
  auto inbound_of = [&](int32_t part, int32_t node) {
    std::vector<const EdgeLocation*> in;
    for (const EdgeLocation& e : snap.edges) {
      if (e.child.partition == part && e.child.node == node) {
        in.push_back(&e);
      }
    }
    return in;
  };

  int32_t victim = -1;
  double victim_score = 0.0;
  for (size_t id = 1; id < snap.stats.size(); ++id) {
    if (is_free[id]) continue;
    const PartitionStats& s = snap.stats[id];
    if (s.points == 0 || s.points > opt.merge_max_points) continue;
    double score = LoadScore(s);
    if (score >= opt.merge_load_factor * mean) continue;
    if (victim >= 0 && score >= victim_score) continue;
    // Foldable: every live subtree is fully local (no downstream
    // partitions hang off it) and reachable through exactly one
    // inbound edge we can retarget.
    bool foldable = true;
    for (const SubtreeInfo& st : snap.subtrees[id]) {
      if (!st.fully_local) {
        foldable = false;
        break;
      }
      size_t in = inbound_of(static_cast<int32_t>(id), st.root).size();
      if (in > 1 || (in == 0 && st.points > 0)) {
        foldable = false;
        break;
      }
    }
    if (!foldable) continue;
    victim = static_cast<int32_t>(id);
    victim_score = score;
  }
  if (victim < 0) return false;

  EpochWindow window(rebalance_epoch_);
  uint64_t moved = 0;
  for (const SubtreeInfo& st : snap.subtrees[victim]) {
    auto in = inbound_of(victim, st.root);
    if (in.empty()) continue;  // Empty orphan root; the evacuate wipes it.
    const EdgeLocation& edge = *in[0];

    // 1. Drain the subtree into one block.
    MergeRequest mreq;
    mreq.root = st.root;
    SEMTREE_ASSIGN_OR_RETURN(
        Payload mpayload,
        cluster_->CallAndWait(victim, kMergeMsg,
                              MakePayload<MergeRequest>(mreq), 32));
    auto& mresp = PayloadAs<MergeResponse>(mpayload);
    if (!mresp.ok) {
      return Status::Internal(
          StringPrintf("merge drain failed: %s", mresp.error.c_str()));
    }
    uint64_t drained = mresp.block.size();

    // 2. Rebuild it inside the parent partition (edge becomes local).
    MigrateRequest mig;
    mig.block = std::move(mresp.block);
    mig.policy = options_.split_policy;
    mig.build_threads = options_.build_threads;
    size_t bytes = mig.block.ApproxBytes();
    SEMTREE_ASSIGN_OR_RETURN(
        Payload gpayload,
        cluster_->CallAndWait(edge.partition, kMigrateMsg,
                              MakePayload<MigrateRequest>(std::move(mig)),
                              bytes));
    int32_t new_root = PayloadAs<MigrateResponse>(gpayload).root_node;

    // 3. Atomically swing the edge to the rebuilt local subtree.
    RetargetRequest rreq;
    rreq.parent_node = edge.parent_node;
    rreq.is_left = edge.is_left;
    rreq.child = ChildRef{edge.partition, new_root};
    SEMTREE_ASSIGN_OR_RETURN(
        Payload rpayload,
        cluster_->CallAndWait(edge.partition, kRetargetMsg,
                              MakePayload<RetargetRequest>(rreq), 32));
    auto& rresp = PayloadAs<RetargetResponse>(rpayload);
    if (!rresp.ok) {
      return Status::Internal(
          StringPrintf("merge retarget failed: %s", rresp.error.c_str()));
    }

    // 4. Collect strands that slipped in between drain and retarget,
    //    and kill the now-unreachable root.
    MergeRequest kreq;
    kreq.root = st.root;
    kreq.kill = true;
    SEMTREE_ASSIGN_OR_RETURN(
        Payload kpayload,
        cluster_->CallAndWait(victim, kMergeMsg,
                              MakePayload<MergeRequest>(kreq), 32));
    auto& kresp = PayloadAs<MergeResponse>(kpayload);
    if (kresp.ok) SEMTREE_RETURN_NOT_OK(ReinsertBlock(kresp.block));
    moved += drained;
  }

  // 5. Return the drained seat to the pool (reset + dead root, so
  //    late arrivals turn into stale retries).
  EvacuateRequest ereq;
  ereq.want_blob = false;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload epayload,
      cluster_->CallAndWait(victim, kEvacuateMsg,
                            MakePayload<EvacuateRequest>(ereq), 32));
  (void)epayload;
  InsertSorted(&free_seats_, victim);

  ++rebalance_counters_.merges;
  rebalance_counters_.points_moved += moved;
  return true;
}

Result<bool> SemTree::TryMigrate(const LoadSnapshot& snap) {
  const RebalanceOptions& opt = options_.rebalance;
  double mean =
      snap.total_score / static_cast<double>(std::max<size_t>(snap.active, 1));
  std::vector<char> is_free(snap.stats.size(), 0);
  for (int32_t s : free_seats_) is_free[static_cast<size_t>(s)] = 1;

  // Hottest overloaded non-root partition. (TrySplit ran first, so
  // anything reaching here has no movable subtree or no seats above.)
  int32_t hot = -1;
  double hot_score = 0.0;
  for (size_t id = 1; id < snap.stats.size(); ++id) {
    if (is_free[id] || snap.stats[id].points == 0) continue;
    double score = LoadScore(snap.stats[id]);
    if (score < opt.split_load_factor * mean || score <= hot_score) {
      continue;
    }
    hot = static_cast<int32_t>(id);
    hot_score = score;
  }
  if (hot < 0) return false;

  // A target seat must keep every edge pointing low → high: above all
  // partitions that point at `hot`, below all partitions `hot` points
  // at.
  int32_t lo = -1;
  int32_t hi = std::numeric_limits<int32_t>::max();
  std::vector<EdgeLocation> inbound;
  for (const EdgeLocation& e : snap.edges) {
    if (e.child.partition == hot) {
      inbound.push_back(e);
      lo = std::max(lo, e.partition);
    }
    if (e.partition == hot) hi = std::min(hi, e.child.partition);
  }
  if (inbound.empty()) return false;  // Nothing routes here; skip.

  // Prefer the admissible free seat whose compute node has the
  // shallowest mailbox (Cluster::NodeLoads); fall back to a fresh
  // partition when the downstream constraint allows it.
  std::vector<Cluster::NodeLoad> loads = cluster_->NodeLoads();
  int32_t target = -1;
  size_t target_queue = std::numeric_limits<size_t>::max();
  size_t target_pos = free_seats_.size();
  for (size_t i = 0; i < free_seats_.size(); ++i) {
    int32_t seat = free_seats_[i];
    if (seat <= lo || seat >= hi) continue;
    size_t queued = static_cast<size_t>(seat) < loads.size()
                        ? loads[static_cast<size_t>(seat)].queued
                        : 0;
    if (queued < target_queue) {
      target_queue = queued;
      target = seat;
      target_pos = i;
    }
  }
  if (target >= 0) {
    free_seats_.erase(free_seats_.begin() +
                      static_cast<ptrdiff_t>(target_pos));
  } else if (hi == std::numeric_limits<int32_t>::max()) {
    target = CreatePartition();
  }
  if (target < 0 || target <= lo) return false;

  EpochWindow window(rebalance_epoch_);
  // 1. Atomic evacuation: blob + reset + dead root in one activation.
  EvacuateRequest ereq;
  ereq.want_blob = true;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload epayload,
      cluster_->CallAndWait(hot, kEvacuateMsg,
                            MakePayload<EvacuateRequest>(ereq), 32));
  auto& eresp = PayloadAs<EvacuateResponse>(epayload);
  uint64_t moved = eresp.points;

  // 2. Restore the blob on the new seat, rewriting self-references.
  RestoreRequest rreq;
  rreq.blob = std::move(eresp.blob);
  rreq.partition_count = PartitionCount();
  rreq.remap_from = hot;
  size_t bytes = rreq.blob.size() + 16;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload rpayload,
      cluster_->CallAndWait(target, kRestoreMsg,
                            MakePayload<RestoreRequest>(std::move(rreq)),
                            bytes));
  auto& rresp = PayloadAs<RestoreResponse>(rpayload);
  if (!rresp.ok) {
    return Status::Internal(StringPrintf(
        "migration restore rejected: %s", rresp.error.c_str()));
  }

  // 3. Swing every inbound edge to the new seat. Node indexes are
  //    preserved by the restore, so only the partition id changes.
  for (const EdgeLocation& e : inbound) {
    RetargetRequest swing;
    swing.parent_node = e.parent_node;
    swing.is_left = e.is_left;
    swing.child = ChildRef{target, e.child.node};
    SEMTREE_ASSIGN_OR_RETURN(
        Payload spayload,
        cluster_->CallAndWait(e.partition, kRetargetMsg,
                              MakePayload<RetargetRequest>(swing), 32));
    auto& sresp = PayloadAs<RetargetResponse>(spayload);
    if (!sresp.ok) {
      return Status::Internal(StringPrintf(
          "migration retarget failed: %s", sresp.error.c_str()));
    }
  }
  InsertSorted(&free_seats_, hot);

  ++rebalance_counters_.migrations;
  rebalance_counters_.points_moved += moved;
  return true;
}

Status SemTree::RebalanceTick() {
  MutexLock lock(rebalance_mu_);
  ++rebalance_counters_.ticks;
  SEMTREE_ASSIGN_OR_RETURN(
      LoadSnapshot snap, GatherLoad(options_.rebalance.load_decay));
  if (snap.total_score < options_.rebalance.min_total_load) {
    return Status::OK();
  }
  {
    SEMTREE_ASSIGN_OR_RETURN(bool acted, TrySplit(snap));
    if (acted) return Status::OK();
  }
  {
    SEMTREE_ASSIGN_OR_RETURN(bool acted, TryMerge(snap));
    if (acted) return Status::OK();
  }
  if (options_.rebalance.allow_migrate) {
    SEMTREE_ASSIGN_OR_RETURN(bool acted, TryMigrate(snap));
    if (acted) return Status::OK();
  }
  return Status::OK();
}

// --------------------------------------------------------------------
// Background driver

Status SemTree::StartRebalancer() {
  MutexLock lock(rebalancer_mu_);
  if (rebalancer_running_) {
    return Status::FailedPrecondition("rebalancer already running");
  }
  rebalancer_stop_ = false;
  rebalancer_running_ = true;
  rebalancer_thread_ = std::thread([this] { RebalancerLoop(); });
  return Status::OK();
}

void SemTree::StopRebalancer() {
  std::thread worker;
  {
    MutexLock lock(rebalancer_mu_);
    if (!rebalancer_running_) return;
    rebalancer_stop_ = true;
    rebalancer_cv_.NotifyAll();
    worker = std::move(rebalancer_thread_);
    rebalancer_running_ = false;
  }
  if (worker.joinable()) worker.join();
}

void SemTree::RebalancerLoop() {
  for (;;) {
    auto deadline =
        std::chrono::steady_clock::now() + options_.rebalance.interval;
    {
      MutexLock lock(rebalancer_mu_);
      while (!rebalancer_stop_ &&
             std::chrono::steady_clock::now() < deadline) {
        rebalancer_cv_.WaitUntil(rebalancer_mu_, deadline);
      }
      if (rebalancer_stop_) return;
    }
    // Unavailable means the cluster shut down under us; anything else
    // is a structural failure worth surfacing loudly.
    Status st = RebalanceTick();
    if (!st.ok()) {
      if (!st.IsUnavailable()) {
        SEMTREE_LOG(Error) << "rebalance tick failed: " << st.ToString();
      }
      return;
    }
  }
}

// --------------------------------------------------------------------
// Observability

SemTreeDebugStats SemTree::DebugStats() const {
  SemTreeDebugStats out;
  out.partitions = AllPartitionStats();
  out.total_points = size();
  out.rebalance_epoch = rebalance_epoch();
  MutexLock lock(rebalance_mu_);
  out.free_partitions = free_seats_;
  out.rebalance = rebalance_counters_;
  return out;
}

std::string SemTreeDebugStats::ToString() const {
  std::string out = StringPrintf(
      "SemTree: %zu points, %zu partitions (%zu free), epoch=%llu\n"
      "rebalance: ticks=%llu splits=%llu merges=%llu migrations=%llu "
      "points_moved=%llu strands=%llu\n",
      total_points, partitions.size(), free_partitions.size(),
      (unsigned long long)rebalance_epoch,
      (unsigned long long)rebalance.ticks,
      (unsigned long long)rebalance.splits,
      (unsigned long long)rebalance.merges,
      (unsigned long long)rebalance.migrations,
      (unsigned long long)rebalance.points_moved,
      (unsigned long long)rebalance.strands_reinserted);
  for (const PartitionStats& p : partitions) {
    out += "  " + p.ToString() + "\n";
  }
  return out;
}

}  // namespace semtree
