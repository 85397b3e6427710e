// Copyright 2026 The SemTree Authors

#include "semtree/semtree.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/bulk_build.h"
#include "core/distance.h"
#include "core/kernels.h"
#include "core/split.h"
#include "semtree/protocol.h"

namespace semtree {

// The wire structs and message ids live in semtree/protocol.h so the
// rebalancer handlers (semtree/rebalance.cc) can speak the same
// protocol without ODR hazards.
using namespace protocol;  // NOLINT(build/namespaces)

namespace {

// One local step of a search item whose top frame `p` hosts (§III-B.3
// and §III-B.4): the stale-frame guard, a leaf scan, then either the
// Table-I status transition of a k-NN routing frame or the one-time
// expansion of a range routing frame.
//
// `item->tb` meters the item's SearchBudget (flagging it truncated
// when a cap runs out) and epsilon relaxes the pruning conditions —
// |P[Sr] - Sv|·(1+eps) against max(Rs) for the k-NN backward visit, the
// (1+ε)-approximate criterion, and against D for a range descent. With
// an exact budget every charge succeeds and the relaxed conditions
// equal the textbook ones, so the traversal is unchanged.
//
// On exhaustion a k-NN item clears its stack: the traversal ends
// wherever it is. A range item only drops the frame that failed, as
// the budget is metered per partition subtree: its later local frames
// fail their own charges (a distance cap still lets routing nodes
// expand), and the remote subtrees they reach are handed back with
// fresh budgets.
void SearchStep(Partition* p, SearchItem* item) {
  std::vector<KnnFrame>& stack = item->stack;
  TravelBudget& tb = item->tb;
  KnnFrame& frame = stack.back();
  auto exhausted = [&]() {
    if (item->type == QueryType::kKnn) {
      stack.clear();
    } else {
      stack.pop_back();
    }
  };
  // Stale-frame guard. A dead node was drained by a structural change
  // (build-partition moving a leaf, or a split's install, DESIGN.md
  // §12) after the frame was captured; its points now sit behind a
  // routing node the traversal has passed, so the frame is dropped, as
  // is an out-of-range index.
  if (frame.node < 0 ||
      static_cast<size_t>(frame.node) >= p->arena_size() ||
      p->node(frame.node).is_dead) {
    stack.pop_back();
    return;
  }
  const Partition::PNode& n = p->node(frame.node);
  if (n.is_leaf) {
    if (!tb.ChargeNode()) {
      exhausted();
      return;
    }
    const PointStore& store = p->store();
    // Batched leaf scan (core/kernels.h); the embedded space is L2 by
    // construction. The bulk grant reproduces a per-point charge loop
    // exactly, including the truncation point.
    size_t granted = tb.ChargeDistances(n.bucket.size());
    p->RecordLoad(0, static_cast<double>(granted));
    std::vector<Neighbor>& rs = item->rs;
    auto coords = [&](size_t j) { return store.CoordsAt(n.bucket[j]); };
    if (item->type == QueryType::kKnn) {
      BatchScan(Metric::kL2, item->query.data(), store.dimensions(),
                granted, coords, [&](size_t j, double d) {
                  rs.push_back(Neighbor{store.IdAt(n.bucket[j]), d});
                  std::push_heap(rs.begin(), rs.end(),
                                 NeighborDistanceThenId);
                  if (rs.size() > item->k) {
                    std::pop_heap(rs.begin(), rs.end(),
                                  NeighborDistanceThenId);
                    rs.pop_back();
                  }
                });
    } else {
      BatchScan(Metric::kL2, item->query.data(), store.dimensions(),
                granted, coords, [&](size_t j, double d) {
                  if (d <= item->radius) {
                    rs.push_back(Neighbor{store.IdAt(n.bucket[j]), d});
                  }
                });
    }
    if (granted < n.bucket.size()) {
      exhausted();
    } else {
      stack.pop_back();
    }
    return;
  }
  double diff = item->query[n.split_dim] - n.split_value;
  double adiff = std::fabs(diff);
  ChildRef near = (diff <= 0.0) ? n.left : n.right;
  ChildRef far = (diff <= 0.0) ? n.right : n.left;
  if (item->type == QueryType::kRange) {
    // Expand once: pop the routing frame and push every child the
    // radius condition |P[Sr] - Sv| <= D admits, the left one on top,
    // so the walk is depth-first, left side first.
    if (!tb.ChargeNode()) {
      exhausted();
      return;
    }
    ChildRef left = n.left;
    ChildRef right = n.right;
    stack.pop_back();
    if (adiff * (1.0 + tb.eps()) <= item->radius) {
      stack.push_back(KnnFrame{right.partition, right.node});
      stack.push_back(KnnFrame{left.partition, left.node});
    } else {
      // Epsilon pruned a side the exact condition would have entered:
      // the result may be missing borderline members.
      if (adiff <= item->radius) tb.truncated = true;
      stack.push_back(KnnFrame{near.partition, near.node});
    }
    return;
  }
  switch (frame.status) {
    case VisitStatus::kNotVisited:
      if (!tb.ChargeNode()) {
        exhausted();
        return;
      }
      // Forward visit: descend the near side first.
      frame.status = VisitStatus::kNearVisited;
      stack.push_back(KnnFrame{near.partition, near.node});
      break;
    case VisitStatus::kNearVisited: {
      // Backward visit: enter the unexplored subtree when the result
      // set is not full (|Rs| < K) or the splitting plane is closer
      // than the worst result (the disjunction of §III-B.3), the
      // latter relaxed by epsilon. The empty-heap guard also covers
      // k == 0.
      const std::vector<Neighbor>& rs = item->rs;
      bool full = rs.size() >= item->k;
      bool enter_relaxed =
          !full ||
          (!rs.empty() && adiff * (1.0 + tb.eps()) < rs.front().distance);
      if (enter_relaxed) {
        frame.status = VisitStatus::kAllVisited;
        stack.push_back(KnnFrame{far.partition, far.node});
      } else {
        // Epsilon (not the geometry) pruned a subtree the exact
        // condition would have entered: the result is approximate.
        if (!rs.empty() && adiff < rs.front().distance) {
          tb.truncated = true;
        }
        stack.pop_back();
      }
      break;
    }
    case VisitStatus::kAllVisited:
      stack.pop_back();
      break;
  }
}

// A fresh item for query `q` that starts at node `start`, with an
// unspent budget, as one outbound call.
Cluster::OutboundCall SearchCall(uint32_t slot, const SpatialQuery& q,
                                 const ChildRef& start) {
  SearchItem item;
  item.slot = slot;
  item.type = q.type;
  item.query = q.coords;
  item.k = q.k;
  item.radius = q.radius;
  item.tb.budget = q.budget;
  item.stack.push_back(KnnFrame{start.partition, start.node});
  size_t bytes = SearchItemBytes(item);
  return Cluster::OutboundCall{start.partition, kSearchMsg,
                               MakePayload<SearchItem>(std::move(item)),
                               bytes};
}

}  // namespace

Result<std::unique_ptr<SemTree>> SemTree::Create(SemTreeOptions options) {
  if (options.dimensions == 0) {
    return Status::InvalidArgument("dimensions must be positive");
  }
  if (options.bucket_size == 0) {
    return Status::InvalidArgument("bucket_size must be positive");
  }
  if (options.max_partitions == 0) {
    return Status::InvalidArgument("max_partitions must be positive");
  }
  std::unique_ptr<SemTree> tree(new SemTree(std::move(options)));
  if (tree->CreatePartition() != 0) {
    return Status::Internal("failed to create the root partition");
  }
  return tree;
}

SemTree::SemTree(SemTreeOptions options) : options_(std::move(options)) {
  ClusterOptions copts;
  copts.latency = options_.network_latency;
  copts.bandwidth_bytes_per_us = options_.bandwidth_bytes_per_us;
  cluster_ = std::make_unique<Cluster>(copts);
  partition_table_.store(new PartitionTable{},
                         std::memory_order_seq_cst);
}

SemTree::~SemTree() {
  // The background rebalancer issues cluster calls; it must be gone
  // before the workers stop draining mailboxes.
  StopRebalancer();
  cluster_->Shutdown();
  // Workers are gone, so no reader can be pinned: the current table
  // dies here and the retired ones drain in RetireList's destructor.
  delete partition_table_.load(std::memory_order_seq_cst);
}

int32_t SemTree::CreatePartition() {
  int32_t id;
  {
    MutexLock lock(partitions_mu_);
    if (partitions_.size() >= options_.max_partitions) return -1;
    id = static_cast<int32_t>(partitions_.size());
    partitions_.push_back(std::make_unique<Partition>(
        id, options_.dimensions, options_.bucket_size));
    // RCU publish (core/epoch.h): a rebuilt immutable table replaces
    // the published one; routing hops pinned to the old table keep
    // reading it until they drain, then it is reclaimed.
    auto* next = new PartitionTable;
    next->entries.reserve(partitions_.size());
    for (const auto& p : partitions_) next->entries.push_back(p.get());
    const PartitionTable* old =
        partition_table_.exchange(next, std::memory_order_seq_cst);
    const uint64_t retire = partition_epochs_.Advance();
    retired_tables_.Retire(retire, /*tag=*/retire, [old] { delete old; });
    retired_tables_.ReclaimBefore(partition_epochs_.MinActiveEpoch());
  }
  ComputeNode* node = cluster_->AddNode();
  RegisterHandlers(partition(id), node);
  node->Start();
  return id;
}

Partition* SemTree::partition(int32_t id) const {
  // Lock-free: pin, read the published table, unpin. The returned
  // Partition pointer outlives the pin — partitions live as long as
  // the tree — so only the table access needs the guard.
  EpochGuard guard(partition_epochs_);
  const PartitionTable* table =
      partition_table_.load(std::memory_order_seq_cst);
  if (id < 0 || static_cast<size_t>(id) >= table->entries.size()) {
    return nullptr;
  }
  return table->entries[static_cast<size_t>(id)];
}

size_t SemTree::PartitionCount() const {
  EpochGuard guard(partition_epochs_);
  return partition_table_.load(std::memory_order_seq_cst)
      ->entries.size();
}

bool SemTree::IsSaturated(const Partition& part) const {
  PartitionStats stats = part.Stats();
  if (options_.saturation) return options_.saturation(stats);
  return stats.points >= options_.partition_capacity;
}

void SemTree::RegisterHandlers(Partition* part, ComputeNode* node) {
  node->RegisterHandler(kInsertMsg, [this, part](const Message& m) {
    HandleInsert(part, m);
  });
  node->RegisterHandler(kSearchMsg, [this, part](const Message& m) {
    HandleSearch(part, m);
  });
  node->RegisterHandler(kBuildPartitionMsg,
                        [this, part](const Message& m) {
                          HandleBuildPartition(part, m);
                        });
  node->RegisterHandler(kAdoptLeafMsg, [this, part](const Message& m) {
    HandleAdoptLeaf(part, m);
  });
  node->RegisterHandler(kStatsMsg, [this, part](const Message& m) {
    HandleStats(part, m);
  });
  node->RegisterHandler(kRemoveMsg, [this, part](const Message& m) {
    HandleRemove(part, m);
  });
  node->RegisterHandler(kBulkBuildMsg, [this, part](const Message& m) {
    HandleBulkBuild(part, m);
  });
  node->RegisterHandler(kInstallTopologyMsg,
                        [this, part](const Message& m) {
                          HandleInstallTopology(part, m);
                        });
  node->RegisterHandler(kSnapshotMsg, [this, part](const Message& m) {
    HandleSnapshot(part, m);
  });
  node->RegisterHandler(kRestoreMsg, [this, part](const Message& m) {
    HandleRestore(part, m);
  });
  RegisterRebalanceHandlers(part, node);
}

// --------------------------------------------------------------------
// Insertion (§III-B.1)

void SemTree::HandleInsert(Partition* p, const Message& msg) {
  auto& req = PayloadAs<InsertRequest>(msg.payload);
  p->RecordLoad(1, 0);
  int32_t nd = req.start_node;
  for (;;) {
    if (nd < 0 || static_cast<size_t>(nd) >= p->arena_size() ||
        p->node(nd).is_dead) {
      // The addressed node vanished mid-rebalance: nothing stored;
      // the client retries from the root against the settled routing.
      InsertResponse resp;
      resp.stale = true;
      cluster_->Respond(msg, MakePayload<InsertResponse>(std::move(resp)),
                        64);
      return;
    }
    Partition::PNode& n = p->node(nd);
    if (n.is_leaf) {
      n.bucket.push_back(
          p->store().Append(req.point.coords.data(), req.point.id));
      p->AddPoints(1);
      total_points_.fetch_add(1, std::memory_order_relaxed);
      p->SplitLeafIfNeeded(nd);
      InsertResponse resp;
      resp.ok = true;
      resp.partition = p->id();
      resp.saturated = IsSaturated(*p);
      cluster_->Respond(msg, MakePayload<InsertResponse>(std::move(resp)),
                        64);
      return;
    }
    const ChildRef& child =
        (req.point.coords[n.split_dim] <= n.split_value) ? n.left
                                                         : n.right;
    if (child.partition == p->id()) {
      // Cp == Childp: navigate as a sequential Kd-Tree.
      nd = child.node;
      continue;
    }
    // Cp != Childp: hand the point to the partition hosting the child;
    // it (or a later hop) answers the original caller.
    req.start_node = child.node;
    cluster_->Forward(msg, child.partition, p->id());
    return;
  }
}

Status SemTree::Insert(const double* coords, size_t dims, PointId id) {
  return Insert(std::vector<double>(coords, coords + dims), id);
}

Status SemTree::Insert(const std::vector<double>& coords, PointId id) {
  if (coords.size() != options_.dimensions) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, tree has %zu",
                     coords.size(), options_.dimensions));
  }
  SEMTREE_RETURN_NOT_OK(CheckFiniteCoords(coords));
  // A stale response means the addressed node vanished mid-rebalance;
  // retrying from the root sees the settled routing. The bound only
  // trips if rebalance steps keep racing this one client.
  for (int attempt = 0; attempt < 16; ++attempt) {
    InsertRequest req;
    req.start_node = 0;
    req.point = KdPoint{coords, id};
    SEMTREE_ASSIGN_OR_RETURN(
        Payload payload,
        cluster_->CallAndWait(0, kInsertMsg,
                              MakePayload<InsertRequest>(std::move(req)),
                              PointBytes(options_.dimensions)));
    auto& resp = PayloadAs<InsertResponse>(payload);
    if (resp.stale) continue;
    if (!resp.ok) return Status::Internal(resp.error);
    if (resp.saturated && PartitionCount() < options_.max_partitions) {
      SEMTREE_ASSIGN_OR_RETURN(
          Payload build,
          cluster_->CallAndWait(
              resp.partition, kBuildPartitionMsg,
              MakePayload<BuildPartitionRequest>(BuildPartitionRequest{}),
              32));
      (void)build;
    }
    return Status::OK();
  }
  return Status::Unavailable(
      "insert kept hitting partitions mid-rebalance");
}

Status SemTree::BulkInsert(const PointBlock& points,
                           size_t client_threads) {
  if (points.dimensions != options_.dimensions && !points.empty()) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (client_threads <= 1) {
    for (size_t i = 0; i < points.size(); ++i) {
      SEMTREE_RETURN_NOT_OK(
          Insert(points.Row(i), points.dimensions, points.ids[i]));
    }
    return Status::OK();
  }
  ThreadPool pool(client_threads);
  std::atomic<bool> failed{false};
  Mutex status_mu;
  Status first_error;
  for (size_t i = 0; i < points.size(); ++i) {
    pool.Submit([this, &points, i, &failed, &status_mu, &first_error]() {
      if (failed.load(std::memory_order_relaxed)) return;
      Status st = Insert(points.Row(i), points.dimensions, points.ids[i]);
      if (!st.ok()) {
        MutexLock lock(status_mu);
        if (first_error.ok()) first_error = st;
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  pool.Wait();
  return first_error;
}

Status SemTree::BulkInsert(const std::vector<KdPoint>& points,
                           size_t client_threads) {
  for (const KdPoint& p : points) {
    if (p.coords.size() != options_.dimensions) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
  }
  return BulkInsert(PointBlock::FromPoints(options_.dimensions, points),
                    client_threads);
}

void SemTree::HandleRemove(Partition* p, const Message& msg) {
  auto& req = PayloadAs<RemoveRequest>(msg.payload);
  p->RecordLoad(1, 0);
  int32_t nd = req.start_node;
  for (;;) {
    if (nd < 0 || static_cast<size_t>(nd) >= p->arena_size() ||
        p->node(nd).is_dead) {
      RemoveResponse resp;
      resp.stale = true;
      cluster_->Respond(msg, MakePayload<RemoveResponse>(resp), 32);
      return;
    }
    Partition::PNode& n = p->node(nd);
    if (n.is_leaf) {
      RemoveResponse resp;
      p->RecordLoad(0, static_cast<double>(n.bucket.size()));
      for (size_t i = 0; i < n.bucket.size(); ++i) {
        Partition::Slot slot = n.bucket[i];
        if (p->store().IdAt(slot) == req.point.id &&
            std::equal(req.point.coords.begin(), req.point.coords.end(),
                       p->store().CoordsAt(slot))) {
          n.bucket.erase(n.bucket.begin() + static_cast<ptrdiff_t>(i));
          p->store().Release(slot);
          p->RemovePoints(1);
          total_points_.fetch_sub(1, std::memory_order_relaxed);
          resp.found = true;
          break;
        }
      }
      cluster_->Respond(msg, MakePayload<RemoveResponse>(resp), 32);
      return;
    }
    const ChildRef& child =
        (req.point.coords[n.split_dim] <= n.split_value) ? n.left
                                                         : n.right;
    if (child.partition == p->id()) {
      nd = child.node;
      continue;
    }
    req.start_node = child.node;
    cluster_->Forward(msg, child.partition, p->id());
    return;
  }
}

Status SemTree::Remove(const std::vector<double>& coords, PointId id) {
  if (coords.size() != options_.dimensions) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, tree has %zu",
                     coords.size(), options_.dimensions));
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    RemoveRequest req;
    req.start_node = 0;
    req.point = KdPoint{coords, id};
    SEMTREE_ASSIGN_OR_RETURN(
        Payload payload,
        cluster_->CallAndWait(0, kRemoveMsg,
                              MakePayload<RemoveRequest>(std::move(req)),
                              PointBytes(options_.dimensions)));
    auto& resp = PayloadAs<RemoveResponse>(payload);
    if (resp.stale) continue;  // Raced a rebalance step; start over.
    if (!resp.found) {
      return Status::NotFound(StringPrintf(
          "point %llu not stored at the given coordinates",
          (unsigned long long)id));
    }
    return Status::OK();
  }
  return Status::Unavailable(
      "remove kept hitting partitions mid-rebalance");
}

// --------------------------------------------------------------------
// Build partition (§III-B.2, Fig. 2)

void SemTree::HandleBuildPartition(Partition* p, const Message& msg) {
  BuildPartitionResponse resp;
  if (IsSaturated(*p)) {
    // Allocate every partition the cluster can still host, then
    // distribute this partition's leaves over them round-robin. The
    // saturated partition keeps only routing structure (and its root
    // regions), matching the paper's "some partitions are used just
    // for routing and others for storing data".
    std::vector<int32_t> targets;
    while (true) {
      int32_t q = CreatePartition();
      if (q < 0) break;
      targets.push_back(q);
    }
    if (!targets.empty()) {
      // Movable leaves, in DFS order: contiguous runs are spatially
      // close, so block assignment preserves locality and searches
      // cross few partitions.
      std::vector<Partition::LeafLocation> movable;
      for (const Partition::LeafLocation& loc : p->LocalLeaves()) {
        // Roots cannot migrate (no parent link to retarget); empty
        // leaves carry nothing to move.
        if (loc.parent < 0) continue;
        if (p->node(loc.leaf).bucket.empty()) continue;
        movable.push_back(loc);
      }
      for (size_t i = 0; i < movable.size(); ++i) {
        const Partition::LeafLocation& loc = movable[i];
        int32_t q = targets[i * targets.size() / movable.size()];
        AdoptLeafRequest adopt;
        // One contiguous coordinate block per migrated leaf (Fig. 2).
        adopt.block = p->ExtractLeafBlock(loc.leaf);
        size_t moved = adopt.block.size();
        size_t bytes = adopt.block.ApproxBytes();
        auto adopted = cluster_->CallAndWait(
            q, kAdoptLeafMsg,
            MakePayload<AdoptLeafRequest>(std::move(adopt)), bytes,
            p->id());
        if (!adopted.ok()) break;
        auto& aresp = PayloadAs<AdoptLeafResponse>(*adopted);
        // Install the direct link between the partitions (Fig. 2).
        Partition::PNode& parent = p->node(loc.parent);
        ChildRef link{q, aresp.root_node};
        (loc.is_left ? parent.left : parent.right) = link;
        p->node(loc.leaf).is_dead = true;
        p->RemovePoints(moved);
        ++resp.leaves_moved;
      }
      resp.new_partitions = std::move(targets);
    }
  }
  cluster_->Respond(
      msg, MakePayload<BuildPartitionResponse>(std::move(resp)), 64);
}

void SemTree::HandleAdoptLeaf(Partition* p, const Message& msg) {
  auto& req = PayloadAs<AdoptLeafRequest>(msg.payload);
  int32_t root = p->AdoptRoot();
  p->AbsorbBlock(root, req.block);
  p->SplitLeafIfNeeded(root);
  AdoptLeafResponse resp;
  resp.root_node = root;
  cluster_->Respond(msg, MakePayload<AdoptLeafResponse>(resp), 32);
}

// --------------------------------------------------------------------
// Distributed bulk load

void SemTree::HandleBulkBuild(Partition* p, const Message& msg) {
  auto& req = PayloadAs<BulkBuildRequest>(msg.payload);
  int32_t root = p->AdoptRoot();
  BulkBuildOptions build;
  build.policy = options_.split_policy;
  build.build_threads = options_.build_threads;
  p->BuildBalancedLocal(root, req.block, build);
  BulkBuildResponse resp;
  resp.root_node = root;
  cluster_->Respond(msg, MakePayload<BulkBuildResponse>(resp), 32);
}

void SemTree::HandleInstallTopology(Partition* p, const Message& msg) {
  auto& req = PayloadAs<InstallTopologyRequest>(msg.payload);
  InstallTopologyResponse resp;
  if (req.skeleton.empty()) {
    resp.error = "empty skeleton";
  } else if (!(p->node(p->root_node()).is_leaf &&
               p->node(p->root_node()).bucket.empty())) {
    resp.error = "root partition is not pristine";
  } else {
    // skeleton[0] overlays the partition root; the rest get fresh
    // nodes. Children are wired after all nodes exist.
    std::vector<int32_t> node_of(req.skeleton.size());
    node_of[0] = p->root_node();
    for (size_t i = 1; i < req.skeleton.size(); ++i) {
      node_of[i] = p->NewLeaf();
    }
    auto resolve = [&](int32_t skeleton_index,
                       const ChildRef& ref) -> ChildRef {
      if (skeleton_index >= 0) {
        return ChildRef{p->id(), node_of[size_t(skeleton_index)]};
      }
      return ref;
    };
    for (size_t i = 0; i < req.skeleton.size(); ++i) {
      const SkeletonNode& sk = req.skeleton[i];
      Partition::PNode& n = p->node(node_of[i]);
      n.is_leaf = false;
      n.split_dim = sk.split_dim;
      n.split_value = sk.split_value;
      n.left = resolve(sk.left_skeleton, sk.left_ref);
      n.right = resolve(sk.right_skeleton, sk.right_ref);
    }
    resp.ok = true;
  }
  cluster_->Respond(
      msg, MakePayload<InstallTopologyResponse>(std::move(resp)), 32);
}

namespace {

// Client-side recursive median partitioning of the corpus into at most
// `budget` regions; emits skeleton routing entries and region spans.
// Works over the flat block through an index permutation — rows are
// gathered into per-region contiguous blocks only once, at dispatch.
struct RegionSplitter {
  const PointBlock& block;
  size_t bucket_size;
  BulkBuildOptions build;  // Split policy for region cuts (serial).
  std::vector<uint32_t> order;  // Row permutation; spans are regions.
  std::vector<SkeletonNode> skeleton;
  std::vector<std::pair<size_t, size_t>> regions;  // [lo, hi) spans.

  RegionSplitter(const PointBlock& b, size_t bucket,
                 const BulkBuildOptions& opts)
      : block(b), bucket_size(bucket), build(opts), order(b.size()) {
    build.bucket_size = bucket;
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
  }

  double Coord(size_t pos, size_t dim) const {
    return block.Row(order[pos])[dim];
  }

  /// Gathers a region span into one contiguous dispatch block.
  PointBlock GatherRegion(size_t region) const {
    auto [lo, hi] = regions[region];
    PointBlock out(block.dimensions);
    out.Reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      out.Append(block.Row(order[i]), block.ids[order[i]]);
    }
    return out;
  }

  // Returns (skeleton_index, region_index): exactly one is >= 0.
  std::pair<int32_t, int32_t> Split(size_t lo, size_t hi, size_t budget) {
    size_t count = hi - lo;
    auto emit_region = [&]() -> std::pair<int32_t, int32_t> {
      regions.emplace_back(lo, hi);
      return {-1, int32_t(regions.size() - 1)};
    };
    if (budget <= 1 || count <= bucket_size) return emit_region();

    const PointBlock& b = block;
    MedianSplit median;
    if (!ChooseSplitForPolicy(order, lo, hi, b.dimensions,
                              [&b](uint32_t x) { return b.Row(x); }, build,
                              &median)) {
      return emit_region();  // All points identical.
    }
    uint32_t best_dim = median.dim;
    size_t split = median.boundary;
    double sv = median.value;
    size_t left_budget = budget / 2;
    size_t right_budget = budget - left_budget;
    // Reserve this skeleton slot before recursing so index 0 is the
    // root.
    size_t my_index = skeleton.size();
    skeleton.emplace_back();
    auto left = Split(lo, split, left_budget);
    auto right = Split(split, hi, right_budget);
    SkeletonNode& sk = skeleton[my_index];
    sk.split_dim = best_dim;
    sk.split_value = sv;
    sk.left_skeleton = left.first;
    sk.right_skeleton = right.first;
    // Region ChildRefs are filled in after the regions are built; stash
    // the region indexes in the refs' node fields for now.
    if (left.first < 0) sk.left_ref = ChildRef{-1, left.second};
    if (right.first < 0) sk.right_ref = ChildRef{-1, right.second};
    return {int32_t(my_index), -1};
  }
};

}  // namespace

Status SemTree::BulkLoadBalanced(std::vector<KdPoint> points) {
  for (const KdPoint& p : points) {
    if (p.coords.size() != options_.dimensions) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
  }
  return BulkLoadBalanced(
      PointBlock::FromPoints(options_.dimensions, points));
}

Status SemTree::BulkLoadBalanced(PointBlock points) {
  if (size() != 0) {
    return Status::FailedPrecondition(
        "bulk load requires an empty tree");
  }
  if (points.empty()) return Status::OK();
  if (points.dimensions != options_.dimensions) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  const size_t count = points.size();

  size_t data_partitions =
      options_.max_partitions > 1 ? options_.max_partitions - 1 : 1;
  if (options_.bulk_load_partitions > 0) {
    // Leave idle seats for the online rebalancer to split into.
    data_partitions =
        std::min(data_partitions, options_.bulk_load_partitions);
  }
  BulkBuildOptions region_build;
  region_build.policy = options_.split_policy;
  RegionSplitter splitter(points, options_.bucket_size, region_build);
  auto root_out = splitter.Split(0, points.size(), data_partitions);

  if (splitter.regions.size() == 1 || options_.max_partitions == 1 ||
      root_out.first < 0) {
    // Everything fits in the root partition.
    BulkBuildRequest req;
    req.block = std::move(points);
    size_t bytes = req.block.ApproxBytes();
    SEMTREE_ASSIGN_OR_RETURN(
        Payload resp,
        cluster_->CallAndWait(0, kBulkBuildMsg,
                              MakePayload<BulkBuildRequest>(std::move(req)),
                              bytes));
    (void)resp;
    total_points_.fetch_add(count, std::memory_order_relaxed);
    return Status::OK();
  }

  // One new partition per region; dispatch the balanced builds in
  // parallel, one contiguous block per region.
  struct PendingRegion {
    int32_t partition;
    std::future<Payload> future;
  };
  std::vector<PendingRegion> pending;
  pending.reserve(splitter.regions.size());
  for (size_t r = 0; r < splitter.regions.size(); ++r) {
    int32_t q = CreatePartition();
    if (q < 0) {
      return Status::ResourceExhausted(
          "not enough compute nodes for the bulk-load regions");
    }
    BulkBuildRequest req;
    req.block = splitter.GatherRegion(r);
    size_t bytes = req.block.ApproxBytes();
    pending.push_back(PendingRegion{
        q, cluster_->Call(q, kBulkBuildMsg,
                          MakePayload<BulkBuildRequest>(std::move(req)),
                          bytes)});
  }
  std::vector<ChildRef> region_refs(pending.size());
  for (size_t r = 0; r < pending.size(); ++r) {
    Payload payload = pending[r].future.get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during bulk load");
    }
    auto& resp = PayloadAs<BulkBuildResponse>(payload);
    region_refs[r] = ChildRef{pending[r].partition, resp.root_node};
  }
  total_points_.fetch_add(count, std::memory_order_relaxed);

  // Patch region placeholders with the real ChildRefs and install the
  // skeleton in the root partition.
  InstallTopologyRequest install;
  install.skeleton = std::move(splitter.skeleton);
  for (SkeletonNode& sk : install.skeleton) {
    if (sk.left_skeleton < 0) {
      sk.left_ref = region_refs[size_t(sk.left_ref.node)];
    }
    if (sk.right_skeleton < 0) {
      sk.right_ref = region_refs[size_t(sk.right_ref.node)];
    }
  }
  size_t bytes = install.skeleton.size() * sizeof(SkeletonNode) + 32;
  SEMTREE_ASSIGN_OR_RETURN(
      Payload payload,
      cluster_->CallAndWait(
          0, kInstallTopologyMsg,
          MakePayload<InstallTopologyRequest>(std::move(install)),
          bytes));
  auto& resp = PayloadAs<InstallTopologyResponse>(payload);
  if (!resp.ok) return Status::Internal(resp.error);
  return Status::OK();
}

// --------------------------------------------------------------------
// Search: k-NN (§III-B.3) and range (§III-B.4)

void SemTree::HandleSearch(Partition* p, const Message& msg) {
  auto& item = PayloadAs<SearchItem>(msg.payload);
  p->RecordLoad(1, 0);
  ++item.partitions_visited;
  while (!item.stack.empty()) {
    const KnnFrame& top = item.stack.back();
    if (top.partition == p->id()) {
      SearchStep(p, &item);
    } else if (item.type == QueryType::kKnn) {
      // Forward the whole work item to the partition hosting the top
      // frame, insertion-style; it (or a later hop) answers the caller.
      cluster_->Forward(msg, top.partition, p->id());
      return;
    } else {
      // Hand the remote subtree back: the caller runs it in parallel
      // with the others, so this worker never waits on another node.
      item.remote.push_back(ChildRef{top.partition, top.node});
      item.stack.pop_back();
    }
  }
  // The k-NN backward visit finished (at the root partition, since the
  // bottom frame lives there), the range walk of this subtree did, or
  // the budget ran out and cleared a k-NN stack wherever the walk was.
  cluster_->Respond(msg, msg.payload, SearchItemBytes(item));
}

Result<std::vector<Neighbor>> SemTree::KnnSearch(
    const std::vector<double>& query, size_t k, const SearchBudget& budget,
    DistributedSearchStats* stats) const {
  SEMTREE_ASSIGN_OR_RETURN(
      auto out, BatchSearch({SpatialQuery::Knn(query, k, budget)}, stats));
  return std::move(out[0]);
}

Result<std::vector<Neighbor>> SemTree::RangeSearch(
    const std::vector<double>& query, double radius,
    const SearchBudget& budget, DistributedSearchStats* stats) const {
  SEMTREE_ASSIGN_OR_RETURN(
      auto out,
      BatchSearch({SpatialQuery::Range(query, radius, budget)}, stats));
  return std::move(out[0]);
}

Result<std::vector<std::vector<Neighbor>>> SemTree::BatchSearch(
    const std::vector<SpatialQuery>& queries,
    DistributedSearchStats* stats,
    std::vector<uint8_t>* truncated) const {
  std::vector<Cluster::OutboundCall> calls;
  calls.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const SpatialQuery& q = queries[i];
    if (q.coords.size() != options_.dimensions) {
      return Status::InvalidArgument(StringPrintf(
          "query %zu has %zu dimensions, tree has %zu", i,
          q.coords.size(), options_.dimensions));
    }
    if (!AllFinite(q.coords)) {
      return Status::InvalidArgument(StringPrintf(
          "query %zu has non-finite (NaN/Inf) coordinates", i));
    }
    // !(radius >= 0) also rejects a NaN radius, which would defeat
    // every pruning comparison on the partition walks.
    if (q.type == QueryType::kRange && !(q.radius >= 0.0)) {
      return Status::InvalidArgument(
          StringPrintf("query %zu has a negative or NaN radius", i));
    }
    calls.push_back(
        SearchCall(static_cast<uint32_t>(i), q, ChildRef{0, 0}));
  }

  // The client loop: every outstanding item is in flight at once. An
  // answered item's results join its slot, and the range subtrees it
  // handed back go out together as fresh items, until none is left.
  std::vector<std::vector<Neighbor>> out(queries.size());
  if (truncated) truncated->assign(queries.size(), 0);
  DistributedSearchStats total;
  std::vector<std::future<Payload>> inflight =
      cluster_->CallAll(std::move(calls));
  for (size_t next = 0; next < inflight.size(); ++next) {
    Payload payload = inflight[next].get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during search");
    }
    const auto& item = PayloadAs<SearchItem>(payload);
    std::vector<Neighbor>& rs = out[item.slot];
    rs.insert(rs.end(), item.rs.begin(), item.rs.end());
    total.partitions_visited += item.partitions_visited;
    total.messages += item.partitions_visited + 1;  // + the response.
    if (item.tb.truncated) {
      total.truncated = true;
      if (truncated) (*truncated)[item.slot] = 1;
    }
    std::vector<Cluster::OutboundCall> subtrees;
    subtrees.reserve(item.remote.size());
    for (const ChildRef& child : item.remote) {
      subtrees.push_back(SearchCall(item.slot, queries[item.slot], child));
    }
    for (std::future<Payload>& f : cluster_->CallAll(std::move(subtrees))) {
      inflight.push_back(std::move(f));
    }
  }
  for (std::vector<Neighbor>& rs : out) {
    std::sort(rs.begin(), rs.end(), NeighborDistanceThenId);
  }
  if (stats) *stats = total;
  return out;
}

// --------------------------------------------------------------------
// Snapshot save / restore (DESIGN.md §5)

void SemTree::HandleSnapshot(Partition* p, const Message& msg) {
  persist::ByteWriter blob;
  p->SaveTo(&blob);
  SnapshotResponse resp;
  resp.blob = blob.Take();
  size_t bytes = resp.blob.size() + 16;
  cluster_->Respond(msg, MakePayload<SnapshotResponse>(std::move(resp)),
                    bytes);
}

void SemTree::HandleRestore(Partition* p, const Message& msg) {
  auto& req = PayloadAs<RestoreRequest>(msg.payload);
  persist::ByteReader in(req.blob);
  Status st = p->RestoreFrom(&in, req.partition_count);
  RestoreResponse resp;
  resp.ok = st.ok();
  if (!st.ok()) resp.error = st.ToString();
  cluster_->Respond(msg, MakePayload<RestoreResponse>(std::move(resp)),
                    64);
}

Status SemTree::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(options_.dimensions);
  out->PutU64(options_.bucket_size);
  out->PutU64(size());
  size_t count = PartitionCount();
  out->PutU64(count);
  // One blob per partition, produced on its own compute node. The
  // fan-out is issued up front so partitions serialize in parallel.
  std::vector<Cluster::OutboundCall> calls;
  calls.reserve(count);
  for (size_t id = 0; id < count; ++id) {
    calls.push_back(Cluster::OutboundCall{
        static_cast<NodeId>(id), kSnapshotMsg,
        MakePayload<SnapshotRequest>(SnapshotRequest{}), 16});
  }
  std::vector<std::future<Payload>> futures =
      cluster_->CallAll(std::move(calls));
  for (std::future<Payload>& f : futures) {
    Payload payload = f.get();
    if (payload == nullptr) {
      return Status::Unavailable("cluster shut down during snapshot");
    }
    out->PutString(PayloadAs<SnapshotResponse>(payload).blob);
  }
  return Status::OK();
}

Result<std::unique_ptr<SemTree>> SemTree::LoadFrom(
    persist::ByteReader* in, SemTreeOptions runtime) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t dimensions, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t bucket_size, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t total_points, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t partition_count, in->U64());
  // Each partition gets a compute node (thread); a crafted count must
  // not exhaust the host before the blobs are even looked at.
  if (partition_count == 0 || partition_count > (1u << 16)) {
    return Status::Corruption("snapshot partition count implausible");
  }
  SEMTREE_RETURN_NOT_OK(in->CheckCount(partition_count, 8));
  SemTreeOptions options = std::move(runtime);
  options.dimensions = dimensions;
  options.bucket_size = bucket_size;
  options.max_partitions =
      std::max<size_t>(options.max_partitions, partition_count);
  SEMTREE_ASSIGN_OR_RETURN(std::unique_ptr<SemTree> tree,
                           SemTree::Create(std::move(options)));
  while (tree->PartitionCount() < partition_count) {
    if (tree->CreatePartition() < 0) {
      return Status::Internal("cannot recreate snapshot partitions");
    }
  }
  for (uint64_t id = 0; id < partition_count; ++id) {
    RestoreRequest req;
    SEMTREE_ASSIGN_OR_RETURN(req.blob, in->String());
    req.partition_count = partition_count;
    size_t bytes = req.blob.size() + 16;
    SEMTREE_ASSIGN_OR_RETURN(
        Payload payload,
        tree->cluster_->CallAndWait(
            static_cast<NodeId>(id), kRestoreMsg,
            MakePayload<RestoreRequest>(std::move(req)), bytes));
    auto& resp = PayloadAs<RestoreResponse>(payload);
    if (!resp.ok) {
      return Status::Corruption(StringPrintf(
          "partition %llu rejected its snapshot blob: %s",
          (unsigned long long)id, resp.error.c_str()));
    }
  }
  tree->total_points_.store(total_points, std::memory_order_relaxed);
  SEMTREE_RETURN_NOT_OK(tree->CheckInvariants());
  return tree;
}

// --------------------------------------------------------------------
// Stats & invariants

void SemTree::HandleStats(Partition* p, const Message& msg) {
  auto& req = PayloadAs<StatsRequest>(msg.payload);
  StatsResponse resp;
  resp.stats = p->Stats();
  if (req.include_subtrees) resp.subtrees = p->Subtrees();
  // Decay AFTER reporting: the rebalancer reads the full window it
  // configured, then shrinks it for the next tick.
  if (req.decay != 1.0) p->DecayLoad(req.decay);
  cluster_->Respond(msg, MakePayload<StatsResponse>(std::move(resp)),
                    sizeof(PartitionStats));
}

std::vector<PartitionStats> SemTree::AllPartitionStats() const {
  size_t count = PartitionCount();
  std::vector<PartitionStats> out;
  out.reserve(count);
  for (size_t id = 0; id < count; ++id) {
    auto payload = cluster_->CallAndWait(
        static_cast<NodeId>(id), kStatsMsg,
        MakePayload<StatsRequest>(StatsRequest{}), 16);
    if (!payload.ok()) continue;
    out.push_back(PayloadAs<StatsResponse>(*payload).stats);
  }
  return out;
}

Status SemTree::CheckInvariants() const {
  // Direct-memory traversal; only sound when the tree is quiescent.
  struct Bound {
    uint32_t dim;
    bool is_upper;  // true: coord <= value; false: coord > value.
    double value;
  };
  struct Frame {
    ChildRef ref;
    std::vector<Bound> bounds;
  };
  size_t seen_points = 0;
  // Each node has exactly one parent edge in a sound tree; a revisit
  // means a cycle or a shared subtree (possible only in a corrupt
  // snapshot), which would otherwise loop this walk forever.
  std::set<std::pair<int32_t, int32_t>> visited;
  std::vector<Frame> stack;
  stack.push_back(Frame{ChildRef{0, 0}, {}});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    Partition* p = partition(f.ref.partition);
    if (p == nullptr) {
      return Status::Corruption("child reference to unknown partition");
    }
    if (f.ref.node < 0 ||
        static_cast<size_t>(f.ref.node) >= p->arena_size()) {
      return Status::Corruption("child node index out of range");
    }
    if (!visited.emplace(f.ref.partition, f.ref.node).second) {
      return Status::Corruption("node reachable through two paths");
    }
    const Partition::PNode& n = p->node(f.ref.node);
    if (n.is_dead) {
      return Status::Corruption("live edge points at a dead node");
    }
    if (n.is_leaf) {
      if (p->store().dimensions() != options_.dimensions) {
        return Status::Corruption("partition store dimension mismatch");
      }
      for (Partition::Slot s : n.bucket) {
        ++seen_points;
        if (s >= p->store().slot_count()) {
          return Status::Corruption("bucket slot out of range");
        }
        const double* coords = p->store().CoordsAt(s);
        for (const Bound& b : f.bounds) {
          double c = coords[b.dim];
          if (b.is_upper ? (c > b.value) : (c <= b.value)) {
            return Status::Corruption(StringPrintf(
                "point %llu escapes its region (partition %d)",
                (unsigned long long)p->store().IdAt(s), p->id()));
          }
        }
      }
      continue;
    }
    if (!n.bucket.empty()) {
      return Status::Corruption("routing node holds points");
    }
    Frame left{n.left, f.bounds};
    left.bounds.push_back(Bound{n.split_dim, true, n.split_value});
    Frame right{n.right, std::move(f.bounds)};
    right.bounds.push_back(Bound{n.split_dim, false, n.split_value});
    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  if (seen_points != size()) {
    return Status::Corruption(
        StringPrintf("size() is %zu but %zu points reachable", size(),
                     seen_points));
  }
  size_t partition_sum = 0;
  for (size_t id = 0; id < PartitionCount(); ++id) {
    partition_sum += partition(static_cast<int32_t>(id))->points();
  }
  if (partition_sum != seen_points) {
    return Status::Corruption("per-partition point counts disagree");
  }
  return Status::OK();
}

}  // namespace semtree
