// Copyright 2026 The SemTree Authors
//
// Online skew-aware partition rebalancing (DESIGN.md §12).
//
// The coordinator runs client-side (RebalanceTick, optionally driven
// by a background thread): it reads the decayed per-partition load
// counters in one stats round and splits at most ONE subtree per
// tick. The hottest overloaded partition copies its largest
// fully-local subtree, the copy is cut with ChooseSplitForPolicy, the
// two halves are built on fresh seats (shipped as PointBlocks in the
// bulk-build message), and only then is the subtree drained and its
// root turned into a routing node over the two new halves. Like the
// paper's build-partition (§III-B.1, Fig. 2), the partitioning only
// ever grows: nothing is merged back and no seat is freed.
//
// Readers are never stopped. Every handler-side mutation happens in
// ONE handler activation on the owning worker thread, so concurrent
// traversals observe either the old or the new structure; frames
// captured across the install hit dead nodes and are dropped. The
// writes that land between the copy and the install are reconciled by
// the coordinator: new points are re-inserted as strands, removed ones
// are removed from the halves.
//
// Deadlock-freedom: rebalance RPCs are only ever issued from the
// coordinator thread, never from inside a handler, so they add no
// nested-call edges. (No search handler waits either; the one handler
// that does is build-partition, whose AdoptLeaf callees call nobody.)
//
// Seat order: the halves always land on fresh seats, which take the
// highest ids, so every routing edge keeps pointing from a lower to a
// higher partition id without a rule to maintain.

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/bulk_build.h"
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

// Copies the points behind `slots` out of `store` into one block.
PointBlock GatherSlots(const PointStore& store,
                       const std::vector<PointStore::Slot>& slots) {
  PointBlock block(store.dimensions());
  block.Reserve(slots.size());
  for (PointStore::Slot s : slots) {
    block.Append(store.CoordsAt(s), store.IdAt(s));
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
  resp.points = GatherSlots(p->store(), slots);
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

// --------------------------------------------------------------------
// Coordinator side (client thread, under rebalance_mu_)

Result<SemTree::LoadSnapshot> SemTree::GatherLoad(double decay) const {
  LoadSnapshot snap;
  size_t count = PartitionCount();
  snap.stats.resize(count);
  snap.subtrees.resize(count);

  std::vector<Cluster::OutboundCall> calls;
  calls.reserve(count);
  for (size_t id = 0; id < count; ++id) {
    StatsRequest req;
    req.decay = decay;
    req.include_subtrees = true;
    calls.push_back(Cluster::OutboundCall{
        static_cast<NodeId>(id), kStatsMsg,
        MakePayload<StatsRequest>(req), 16});
  }
  std::vector<std::future<Payload>> futures =
      cluster_->CallAll(std::move(calls));
  for (size_t id = 0; id < count; ++id) {
    Payload payload = futures[id].get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during rebalance");
    }
    auto& resp = PayloadAs<StatsResponse>(payload);
    snap.stats[id] = resp.stats;
    snap.subtrees[id] = resp.subtrees;
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

Status SemTree::ReconcileCopy(const PointBlock& copied,
                              const PointBlock& drained) {
  // The strands inserted since the copy never left the logical tree:
  // Insert() will count them again, so take them out of the total
  // first.
  const PointBlock strands = RowsMissingFrom(drained, copied);
  total_points_.fetch_sub(strands.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < strands.size(); ++i) {
    SEMTREE_RETURN_NOT_OK(
        Insert(strands.Row(i), strands.dimensions, strands.ids[i]));
  }
  rebalance_counters_.strands_reinserted += strands.size();
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

Status SemTree::TrySplit(const LoadSnapshot& snap) {
  // Every seat is taken: nothing to split onto, so copy nothing.
  if (PartitionCount() >= options_.max_partitions) return Status::OK();
  const RebalanceOptions& opt = options_.rebalance;
  double mean =
      snap.total_score / static_cast<double>(std::max<size_t>(snap.active, 1));

  int32_t best = -1;
  int32_t best_root = -1;
  double best_score = 0.0;
  for (size_t id = 0; id < snap.stats.size(); ++id) {
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
  if (best < 0) return Status::OK();

  EpochWindow window(rebalance_epoch_);
  SplitRequest sreq;
  sreq.root = best_root;
  sreq.policy = options_.split_policy;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload spayload,
      cluster_->CallAndWait(best, kSplitMsg, MakePayload<SplitRequest>(sreq),
                            32));
  auto& sresp = PayloadAs<SplitResponse>(spayload);
  // Nothing was mutated (two-phase handler); the tick just found no
  // viable cut. Not an error: the next tick re-evaluates.
  if (!sresp.ok) return Status::OK();

  // Seats are created only now, so a failed cut leaves no idle seat.
  // With one seat left both halves adopt into it (two roots); build-
  // partition may have taken the last one since the count was read.
  const int32_t left_seat = CreatePartition();
  if (left_seat < 0) return Status::OK();
  int32_t right_seat = CreatePartition();
  if (right_seat < 0) right_seat = left_seat;

  uint64_t moved = sresp.left.size() + sresp.right.size();
  // What the install will compare the drained subtree against.
  PointBlock copied = sresp.left;
  for (size_t i = 0; i < sresp.right.size(); ++i) {
    copied.Append(sresp.right.Row(i), sresp.right.ids[i]);
  }

  auto ship = [&](PointBlock block, int32_t target) -> Result<int32_t> {
    BulkBuildRequest req;
    req.block = std::move(block);
    size_t bytes = req.block.ApproxBytes();
    SEMTREE_ASSIGN_OR_RETURN(
        Payload payload,
        cluster_->CallAndWait(target, kBulkBuildMsg,
                              MakePayload<BulkBuildRequest>(std::move(req)),
                              bytes));
    return PayloadAs<BulkBuildResponse>(payload).root_node;
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
  return Status::OK();
}

Status SemTree::RebalanceTick() {
  MutexLock lock(rebalance_mu_);
  ++rebalance_counters_.ticks;
  SEMTREE_ASSIGN_OR_RETURN(
      LoadSnapshot snap, GatherLoad(options_.rebalance.load_decay));
  if (snap.total_score < options_.rebalance.min_total_load) {
    return Status::OK();
  }
  return TrySplit(snap);
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
  out.rebalance = rebalance_counters_;
  return out;
}

std::string SemTreeDebugStats::ToString() const {
  std::string out = StringPrintf(
      "SemTree: %zu points, %zu partitions, epoch=%llu\n"
      "rebalance: ticks=%llu splits=%llu points_moved=%llu "
      "strands=%llu\n",
      total_points, partitions.size(),
      (unsigned long long)rebalance_epoch,
      (unsigned long long)rebalance.ticks,
      (unsigned long long)rebalance.splits,
      (unsigned long long)rebalance.points_moved,
      (unsigned long long)rebalance.strands_reinserted);
  for (const PartitionStats& p : partitions) {
    out += "  " + p.ToString() + "\n";
  }
  return out;
}

}  // namespace semtree
