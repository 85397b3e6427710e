// Copyright 2026 The SemTree Authors
//
// Online skew-aware partition rebalancing (DESIGN.md §12).
//
// The coordinator runs client-side (RebalanceTick, optionally driven
// by a background thread): it reads the decayed per-partition load
// counters in one stats round and splits at most ONE subtree per
// tick. The hottest overloaded partition moves its largest
// fully-local subtree in one activation, the way build-partition moves
// leaves (§III-B.1, Fig. 2): it cuts the points with
// ChooseSplitForPolicy, creates the seats, ships each half to a seat as
// an unawaited bulk build, and turns the subtree root into the routing
// node over the halves' roots. The partitioning only ever grows:
// nothing is merged back and no seat is freed.
//
// Readers and writers are never stopped. The split mutates the source
// in one handler activation, so concurrent operations see either the
// old subtree or the new routing node, and the seats' FIFO queues run
// the builds before anything that reaches them through the new links
// (DESIGN.md §2). Frames captured inside the subtree hit dead nodes
// and are dropped.
//
// Deadlock-freedom: the coordinator waits on the split's answer and on
// one stats round over the seats, and no handler waits on another node
// (compute_node.h).
//
// Seat order: the halves always land on fresh seats, which take the
// highest ids, so every routing edge keeps pointing from a lower to a
// higher partition id without a rule to maintain.

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/bulk_build.h"
#include "semtree/protocol.h"
#include "semtree/semtree.h"

namespace semtree {

using namespace protocol;  // NOLINT(build/namespaces)

namespace {

// Per-tick multiplicative decay applied to every partition's load
// counters after they are read, so triggers track the recent window
// instead of all-time totals.
constexpr double kLoadDecay = 0.5;

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

}  // namespace

// --------------------------------------------------------------------
// Handler side (runs on whichever thread holds the owning partition's
// compute node, one handler at a time)

void SemTree::HandleSplit(Partition* p, const Message& msg) {
  auto& req = PayloadAs<SplitRequest>(msg.payload);
  SplitResponse resp;
  auto respond = [&]() {
    cluster_->Respond(msg, MakePayload<SplitResponse>(std::move(resp)), 32);
  };
  // Nothing split: the root vanished, the subtree grew a remote edge,
  // or it holds fewer than two points. The next tick re-evaluates.
  std::vector<Partition::Slot> slots;
  if (!p->IsLive(req.root) || !p->SubtreeLocalSlots(req.root, &slots) ||
      slots.size() < 2) {
    return respond();
  }

  // Cut.
  const PointStore& store = p->store();
  std::vector<uint32_t> order(slots.size());
  std::iota(order.begin(), order.end(), 0u);
  BulkBuildOptions cut_opts;
  cut_opts.policy = req.policy;
  cut_opts.bucket_size = 1;  // Any 2+ points are worth cutting.
  MedianSplit cut;
  if (!ChooseSplitForPolicy(
          order, 0, order.size(), store.dimensions(),
          [&](uint32_t i) { return store.CoordsAt(slots[i]); }, cut_opts,
          &cut)) {
    return respond();  // Inseparable: all points equal.
  }

  // Seats, created only once the cut succeeded, so a failed cut leaves
  // no idle seat. Build-partition may have taken the last seats since
  // the coordinator read the count; with one left, both halves go to it.
  const int32_t left_seat = CreatePartition();
  if (left_seat < 0) return respond();
  resp.seats.push_back(left_seat);
  const int32_t right_seat = CreatePartition();
  if (right_seat >= 0) resp.seats.push_back(right_seat);

  // Halves, in the cut's order; then the subtree lets its points go.
  PointBlock left(store.dimensions());
  PointBlock right(store.dimensions());
  left.Reserve(cut.boundary);
  right.Reserve(order.size() - cut.boundary);
  for (size_t i = 0; i < order.size(); ++i) {
    const Partition::Slot s = slots[order[i]];
    (i < cut.boundary ? left : right).Append(store.CoordsAt(s), store.IdAt(s));
  }
  p->DetachSubtree(req.root);
  p->RemovePoints(slots.size());
  p->BumpRebalances();

  // Ship: the left half to the first seat, the right one to the last.
  // Each seat is fresh, so its blocks take the roots 0, 1, ...
  std::vector<std::vector<PointBlock>> shipments(resp.seats.size());
  shipments.front().push_back(std::move(left));
  shipments.back().push_back(std::move(right));
  std::vector<ChildRef> links;
  for (size_t i = 0; i < shipments.size(); ++i) {
    for (const ChildRef& link :
         ShipToSeat(p->id(), resp.seats[i], 0, std::move(shipments[i]))) {
      links.push_back(link);
    }
  }

  // Link: the subtree root becomes the routing node over the halves,
  // in this same activation.
  Partition::PNode& n = p->node(req.root);
  n.is_leaf = false;
  n.split_dim = cut.dim;
  n.split_value = cut.value;
  n.left = links.front();
  n.right = links.back();
  resp.points_moved = slots.size();
  respond();
}

// --------------------------------------------------------------------
// Coordinator side (client thread, under rebalance_mu_)

Result<SemTree::LoadSnapshot> SemTree::GatherLoad(double decay) const {
  std::vector<int32_t> ids(PartitionCount());
  std::iota(ids.begin(), ids.end(), 0);
  StatsRequest req;
  req.decay = decay;
  req.include_subtrees = true;
  SEMTREE_ASSIGN_OR_RETURN(std::vector<StatsResponse> round,
                           StatsRound(ids, req));
  LoadSnapshot snap;
  for (StatsResponse& resp : round) {
    double score = LoadScore(resp.stats);
    if (resp.stats.points > 0 || score > 0.0) {
      snap.total_score += score;
      ++snap.active;
    }
    snap.stats.push_back(resp.stats);
    snap.subtrees.push_back(std::move(resp.subtrees));
  }
  return snap;
}

Status SemTree::TrySplit(const LoadSnapshot& snap) {
  // Every seat is taken: nothing to split onto, so the tick costs its
  // stats round alone.
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
  SplitRequest req;
  req.root = best_root;
  req.policy = options_.split_policy;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload payload,
      cluster_->CallAndWait(best, kSplitMsg, MakePayload<SplitRequest>(req),
                            32));
  const auto& resp = PayloadAs<SplitResponse>(payload);
  if (resp.seats.empty()) return Status::OK();  // The next tick retries.
  // The handler shipped the halves without waiting. Each seat's FIFO
  // queue runs its stats request after the build, so once every answer
  // is in, the split is complete.
  SEMTREE_RETURN_NOT_OK(StatsRound(resp.seats, StatsRequest{}).status());
  ++rebalance_counters_.splits;
  rebalance_counters_.points_moved += resp.points_moved;
  return Status::OK();
}

Status SemTree::RebalanceTick() {
  MutexLock lock(rebalance_mu_);
  ++rebalance_counters_.ticks;
  SEMTREE_ASSIGN_OR_RETURN(LoadSnapshot snap, GatherLoad(kLoadDecay));
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
      "rebalance: ticks=%llu splits=%llu points_moved=%llu\n",
      total_points, partitions.size(),
      (unsigned long long)rebalance_epoch,
      (unsigned long long)rebalance.ticks,
      (unsigned long long)rebalance.splits,
      (unsigned long long)rebalance.points_moved);
  for (const PartitionStats& p : partitions) {
    out += "  " + p.ToString() + "\n";
  }
  return out;
}

}  // namespace semtree
