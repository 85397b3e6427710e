// Copyright 2026 The SemTree Authors

#include "kdtree/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/string_util.h"
#include "core/best_first.h"
#include "core/bulk_build.h"
#include "core/split.h"
#include "persist/snapshot.h"

namespace semtree {

KdTree::KdTree(size_t dimensions, KdTreeOptions options)
    : dimensions_(std::max<size_t>(1, dimensions)),
      options_(options),
      store_(dimensions_) {
  if (options_.bucket_size == 0) options_.bucket_size = 1;
  // Base setters; cannot fail here.
  (void)set_metric(options_.metric);
  (void)set_split_policy(options_.split_policy);
  NewLeaf();  // Root.
}

int32_t KdTree::NewLeaf() {
  nodes_.emplace_back();
  return static_cast<int32_t>(nodes_.size() - 1);
}

Status KdTree::Insert(const std::vector<double>& coords, PointId id) {
  if (coords.size() != dimensions_) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, tree has %zu",
                     coords.size(), dimensions_));
  }
  SEMTREE_RETURN_NOT_OK(CheckFiniteCoords(coords));
  // Navigate by (Sr, Sv) as in the standard Kd-Tree: left holds
  // coords[Sr] <= Sv, right holds coords[Sr] > Sv.
  int32_t node = 0;
  while (!nodes_[node].is_leaf) {
    const Node& n = nodes_[node];
    node = (coords[n.split_dim] <= n.split_value) ? n.left : n.right;
  }
  nodes_[node].bucket.push_back(store_.Append(coords.data(), id));
  if (nodes_[node].bucket.size() > options_.bucket_size) {
    MaybeSplitLeaf(node);
  }
  BumpEpoch();
  return Status::OK();
}

Status KdTree::Remove(const std::vector<double>& coords, PointId id) {
  if (coords.size() != dimensions_) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, tree has %zu",
                     coords.size(), dimensions_));
  }
  int32_t node = 0;
  while (!nodes_[node].is_leaf) {
    const Node& n = nodes_[node];
    node = (coords[n.split_dim] <= n.split_value) ? n.left : n.right;
  }
  std::vector<Slot>& bucket = nodes_[node].bucket;
  for (size_t i = 0; i < bucket.size(); ++i) {
    Slot slot = bucket[i];
    if (store_.IdAt(slot) == id &&
        std::equal(coords.begin(), coords.end(), store_.CoordsAt(slot))) {
      bucket.erase(bucket.begin() + static_cast<ptrdiff_t>(i));
      store_.Release(slot);
      BumpEpoch();
      return Status::OK();
    }
  }
  return Status::NotFound(StringPrintf(
      "point %llu not stored at the given coordinates",
      (unsigned long long)id));
}

void KdTree::MaybeSplitLeaf(int32_t node) {
  BucketSplit split;
  if (!ChooseBucketSplit(nodes_[node].bucket, dimensions_,
                         [this](Slot s) { return store_.CoordsAt(s); },
                         &split)) {
    return;  // Identical points: allow overflow.
  }
  int32_t left = NewLeaf();
  int32_t right = NewLeaf();
  // NewLeaf may reallocate nodes_; re-take the reference.
  Node& n = nodes_[node];
  for (Slot s : n.bucket) {
    (store_.CoordsAt(s)[split.dim] <= split.value ? nodes_[left]
                                                  : nodes_[right])
        .bucket.push_back(s);
  }
  n.bucket.clear();
  n.bucket.shrink_to_fit();
  n.is_leaf = false;
  n.split_dim = split.dim;
  n.split_value = split.value;
  n.left = left;
  n.right = right;
}

Result<std::vector<KdTree::Slot>> KdTree::StoreAll(
    const std::vector<KdPoint>& points) {
  for (const KdPoint& p : points) {
    if (p.coords.size() != dimensions_) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
    SEMTREE_RETURN_NOT_OK(CheckFiniteCoords(p.coords));
  }
  store_.Reserve(points.size());
  std::vector<Slot> slots;
  slots.reserve(points.size());
  for (const KdPoint& p : points) {
    slots.push_back(store_.Append(p.coords.data(), p.id));
  }
  return slots;
}

Result<KdTree> KdTree::BulkLoadBalanced(size_t dimensions,
                                        const std::vector<KdPoint>& points,
                                        KdTreeOptions options) {
  KdTree tree(dimensions, options);
  SEMTREE_ASSIGN_OR_RETURN(std::vector<Slot> slots,
                           tree.StoreAll(points));
  if (slots.empty()) return tree;
  tree.BuildFromPlan(slots);
  return tree;
}

Status KdTree::BulkLoad(const std::vector<KdPoint>& points) {
  if (points.empty()) return Status::OK();
  if (size() != 0) return SpatialIndex::BulkLoad(points);  // Insert loop.
  // Drop the slots earlier removals freed: the plan build permutes a
  // store without free slots.
  store_ = PointStore(dimensions_);
  SEMTREE_ASSIGN_OR_RETURN(std::vector<Slot> slots, StoreAll(points));
  BuildFromPlan(slots);
  BumpEpoch();
  return Status::OK();
}

// Phase 2 of the bulk build (core/bulk_build.h): emit nodes from the
// plan in exactly the order the historical serial builder allocated
// them — this node, the whole left subtree, the whole right subtree —
// so plan-built trees (serial or parallel, either policy) snapshot
// byte-identically to a serial recursive build.
//
// Before emission the arena is permuted into plan order: slot i takes
// the row at plan position i. The plan's leaf spans tile [0, n) in
// pre-order, each in canonical (ascending input) order, so every leaf
// becomes one run of consecutive slots and a leaf scan reads adjacent
// rows instead of gathering them from across the arena.
void KdTree::BuildFromPlan(std::vector<Slot>& slots) {
  const PointStore& store = store_;
  BulkBuildOptions opts;
  opts.policy = options_.split_policy;
  opts.build_threads = options_.build_threads;
  opts.bucket_size = options_.bucket_size;
  std::unique_ptr<KdPlanNode> plan = BuildKdPlan(
      slots, dimensions_,
      [&store](Slot s) { return store.CoordsAt(s); }, opts);
  store_.Permute(slots);
  std::iota(slots.begin(), slots.end(), Slot{0});
  nodes_.clear();
  if (plan == nullptr) {
    NewLeaf();  // Empty tree: a single empty root leaf.
    return;
  }
  // Iterative pre-order emission replicating the serial recursion's
  // allocation order (node, left subtree, right subtree). `fixup`
  // frames record where the parent's child indices go once known —
  // pre-order means left == parent + 1, and right is patched when its
  // subtree is reached.
  struct Frame {
    const KdPlanNode* plan;
    int32_t parent;   // Node awaiting a child index, -1 for the root.
    bool is_right;    // Which child of `parent` this subtree is.
  };
  std::vector<Frame> stack = {{plan.get(), -1, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    int32_t node = NewLeaf();
    if (f.parent >= 0) {
      (f.is_right ? nodes_[f.parent].right : nodes_[f.parent].left) = node;
    }
    const KdPlanNode* p = f.plan;
    if (p->is_leaf) {
      nodes_[node].bucket.assign(
          slots.begin() + static_cast<ptrdiff_t>(p->lo),
          slots.begin() + static_cast<ptrdiff_t>(p->hi));
      continue;
    }
    Node& n = nodes_[node];
    n.is_leaf = false;
    n.split_dim = p->split_dim;
    n.split_value = p->split_value;
    // Left subtree is emitted before the right one: push right first.
    stack.push_back({p->right.get(), node, true});
    stack.push_back({p->left.get(), node, false});
  }
}

Result<KdTree> KdTree::BuildChain(size_t dimensions,
                                  const std::vector<KdPoint>& points,
                                  KdTreeOptions options) {
  KdTree tree(dimensions, options);
  SEMTREE_ASSIGN_OR_RETURN(std::vector<Slot> slots,
                           tree.StoreAll(points));
  if (slots.empty()) return tree;
  const PointStore& store = tree.store_;

  // Sort on dimension 0 and group equal values; each group becomes a
  // one-leaf step of the chain.
  std::sort(slots.begin(), slots.end(), [&store](Slot a, Slot b) {
    double ca = store.CoordsAt(a)[0];
    double cb = store.CoordsAt(b)[0];
    if (ca != cb) return ca < cb;
    return store.IdAt(a) < store.IdAt(b);
  });
  tree.nodes_.clear();
  tree.NewLeaf();  // Node 0, rebuilt below.

  // Build iteratively from the back: tail = leaf of the last group;
  // every earlier group adds a routing node (left = group leaf,
  // right = tail so far).
  std::vector<std::pair<size_t, size_t>> groups;  // [lo, hi) ranges.
  size_t start = 0;
  for (size_t i = 1; i <= slots.size(); ++i) {
    if (i == slots.size() ||
        store.CoordsAt(slots[i])[0] != store.CoordsAt(slots[start])[0]) {
      groups.emplace_back(start, i);
      start = i;
    }
  }

  auto fill_leaf = [&](int32_t leaf, size_t lo, size_t hi) {
    tree.nodes_[leaf].bucket.assign(slots.begin() + lo,
                                    slots.begin() + hi);
  };

  if (groups.size() == 1) {
    fill_leaf(0, groups[0].first, groups[0].second);
    return tree;
  }

  // Chain from the tail upward; node 0 must end up as the chain head,
  // so build heads for groups in reverse and splice the first into 0.
  int32_t tail = tree.NewLeaf();
  fill_leaf(tail, groups.back().first, groups.back().second);
  for (size_t gi = groups.size() - 1; gi-- > 0;) {
    int32_t leaf = tree.NewLeaf();
    fill_leaf(leaf, groups[gi].first, groups[gi].second);
    int32_t routing = (gi == 0) ? 0 : tree.NewLeaf();
    Node& n = tree.nodes_[routing];
    n.is_leaf = false;
    n.split_dim = 0;
    n.split_value = store.CoordsAt(tree.nodes_[leaf].bucket[0])[0];
    n.left = leaf;
    n.right = tail;
    tail = routing;
  }
  return tree;
}

template <typename RelaxedLimitFn, typename ExactLimitFn, typename Sink>
void KdTree::RegionWalk(const double* query, BudgetGauge* gauge,
                        SearchStats* stats, RelaxedLimitFn relaxed_limit,
                        ExactLimitFn exact_limit, Sink sink) const {
  const Metric m = metric();
  const size_t dim = dimensions_;
  // A frontier handle indexes `pending`: the node and the first slot of
  // its row in `gaps`, the query's per-dimension gap to the node's
  // region (RegionLowerBound). The root's row is all zeros.
  struct Pending {
    int32_t node;
    size_t row;
  };
  std::vector<Pending> pending = {{0, 0}};
  std::vector<double> gaps(dim, 0.0);
  BestFirstSearch(
      0, gauge, relaxed_limit, exact_limit,
      [&](int32_t handle, double bound, Frontier* frontier) {
        const Pending at = pending[size_t(handle)];
        const Node& n = nodes_[size_t(at.node)];
        if (n.is_leaf) {
          ++stats->leaves_visited;
          // Batched leaf scan (core/kernels.h): the bulk charge grants
          // exactly what a per-point loop would have computed, so
          // budgeted results and stats match a scalar scan.
          size_t granted = gauge->ChargeDistances(n.bucket.size());
          BatchScan(
              m, query, dim, granted,
              [&](size_t j) { return store_.CoordsAt(n.bucket[j]); },
              [&](size_t j, double d) { sink(store_.IdAt(n.bucket[j]), d); });
          return;
        }
        // The near child's region gaps are its parent's, so it shares
        // the row and the bound. The far child lies beyond the plane:
        // its row is the parent's with gap[Sr] = |query[Sr] - Sv|, the
        // backward-visit quantity of §III-B.3.
        double diff = query[n.split_dim] - n.split_value;
        int32_t near = (diff <= 0.0) ? n.left : n.right;
        int32_t far = (diff <= 0.0) ? n.right : n.left;
        pending.push_back(Pending{near, at.row});
        frontier->Push(bound, int32_t(pending.size() - 1));
        size_t row = gaps.size();
        gaps.resize(row + dim);
        std::copy_n(gaps.data() + at.row, dim, gaps.data() + row);
        gaps[row + n.split_dim] = std::fabs(diff);
        pending.push_back(Pending{far, row});
        frontier->Push(RegionLowerBound(m, gaps.data() + row, dim),
                       int32_t(pending.size() - 1));
      });
}

std::vector<Neighbor> KdTree::KnnSearch(const std::vector<double>& query,
                                        size_t k,
                                        const SearchBudget& budget,
                                        SearchStats* stats) const {
  // Wrong-arity and non-finite queries return empty rather than
  // reading out of bounds or poisoning the frontier ordering (the
  // raw-pointer kernel consumes exactly dimensions_ doubles).
  if (k == 0 || size() == 0 || query.size() != dimensions_ ||
      !AllFinite(query)) {
    return {};
  }
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  KnnAccumulator acc(k, size());
  double scale = budget.pruning_scale();
  RegionWalk(
      query.data(), &gauge, st, [&] { return acc.tau() * scale; },
      [&] { return acc.tau(); },
      [&](PointId id, double d) { acc.Offer(id, d); });
  return acc.Take();
}

std::vector<Neighbor> KdTree::RangeSearch(const std::vector<double>& query,
                                          double radius,
                                          const SearchBudget& budget,
                                          SearchStats* stats) const {
  std::vector<Neighbor> out;
  // !(radius >= 0) also rejects a NaN radius, which would otherwise
  // defeat every pruning comparison and walk the whole tree.
  if (size() == 0 || !(radius >= 0.0) || query.size() != dimensions_ ||
      !AllFinite(query)) {
    return out;
  }
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  double limit = radius * budget.pruning_scale();
  // A region within D of the query admits its children (§III-B.4 with
  // the region bound in place of the single plane gap).
  RegionWalk(query.data(), &gauge, st, [&] { return limit; },
             [&] { return radius; }, [&](PointId id, double d) {
               if (d <= radius) out.push_back(Neighbor{id, d});
             });
  std::sort(out.begin(), out.end(), NeighborDistanceThenId);
  return out;
}

void KdTree::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(dimensions_);
  out->PutU64(options_.bucket_size);
  out->PutU64(epoch());
  persist::WritePointStore(store_, out);
  out->PutU64(nodes_.size());
  for (const Node& n : nodes_) {
    out->PutU8(n.is_leaf ? 1 : 0);
    out->PutU32(n.split_dim);
    out->PutDouble(n.split_value);
    out->PutI32(n.left);
    out->PutI32(n.right);
    out->PutU32Array(n.bucket);
  }
}

Result<KdTree> KdTree::LoadFrom(persist::ByteReader* in) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t dimensions, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t bucket_size, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t epoch, in->U64());
  KdTreeOptions options;
  options.bucket_size = bucket_size;
  KdTree tree(dimensions, options);
  SEMTREE_ASSIGN_OR_RETURN(tree.store_, persist::ReadPointStore(in));
  if (tree.store_.dimensions() != tree.dimensions_) {
    return Status::Corruption("kd-tree arena dimensionality mismatch");
  }
  SEMTREE_ASSIGN_OR_RETURN(uint64_t node_count, in->U64());
  if (node_count == 0) {
    return Status::Corruption("kd-tree snapshot has no nodes");
  }
  // 29 = serialized bytes of an empty node (flag, split, children,
  // bucket length).
  SEMTREE_RETURN_NOT_OK(in->CheckCount(node_count, 29));
  tree.nodes_.clear();
  tree.nodes_.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node n;
    SEMTREE_ASSIGN_OR_RETURN(uint8_t is_leaf, in->U8());
    n.is_leaf = is_leaf != 0;
    SEMTREE_ASSIGN_OR_RETURN(n.split_dim, in->U32());
    SEMTREE_ASSIGN_OR_RETURN(n.split_value, in->Double());
    SEMTREE_ASSIGN_OR_RETURN(n.left, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.right, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.bucket, in->U32Array());
    if (!n.is_leaf &&
        (n.split_dim >= tree.dimensions_ || n.left < 0 || n.right < 0 ||
         uint64_t(n.left) >= node_count ||
         uint64_t(n.right) >= node_count)) {
      return Status::Corruption("kd-tree routing node malformed");
    }
    tree.nodes_.push_back(std::move(n));
  }
  // Range checks alone admit cycles, which would overflow the search
  // recursion; require the children to form a tree below node 0. The
  // leaves it reaches must own the store's live slots.
  std::vector<bool> visited(node_count, false);
  std::vector<const std::vector<Slot>*> leaves;
  std::vector<int32_t> stack = {0};
  while (!stack.empty()) {
    int32_t node = stack.back();
    stack.pop_back();
    if (visited[size_t(node)]) {
      return Status::Corruption("kd-tree snapshot topology has a cycle");
    }
    visited[size_t(node)] = true;
    const Node& n = tree.nodes_[size_t(node)];
    if (n.is_leaf) {
      leaves.push_back(&n.bucket);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  SEMTREE_RETURN_NOT_OK(
      persist::CheckSlotOwnership(tree.store_, leaves, "kd-tree"));
  tree.RestoreEpoch(epoch);
  return tree;
}

size_t KdTree::LeafCount() const {
  size_t leaves = 0;
  for (const Node& n : nodes_) leaves += n.is_leaf ? 1 : 0;
  return leaves;
}

size_t KdTree::Depth() const {
  // Iterative DFS carrying depth.
  size_t max_depth = 0;
  std::vector<std::pair<int32_t, size_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& n = nodes_[node];
    if (!n.is_leaf) {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

std::vector<std::vector<KdTree::Slot>> KdTree::LeafBuckets() const {
  std::vector<std::vector<Slot>> out;
  std::vector<int32_t> stack = {0};
  while (!stack.empty()) {
    const Node& n = nodes_[size_t(stack.back())];
    stack.pop_back();
    if (n.is_leaf) {
      out.push_back(n.bucket);
    } else {
      stack.push_back(n.right);  // Left subtree first.
      stack.push_back(n.left);
    }
  }
  return out;
}

Status KdTree::CheckInvariants() const {
  struct Frame {
    int32_t node;
    std::vector<std::pair<uint32_t, std::pair<bool, double>>> bounds;
  };
  // bounds entries: (dim, (is_upper, value)): is_upper means
  // coord[dim] <= value must hold, else coord[dim] > value.
  size_t seen_points = 0;
  std::vector<Frame> stack = {{0, {}}};
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.node < 0 || static_cast<size_t>(f.node) >= nodes_.size()) {
      return Status::Corruption("child index out of range");
    }
    const Node& n = nodes_[f.node];
    if (n.is_leaf) {
      for (Slot s : n.bucket) {
        ++seen_points;
        if (s >= store_.slot_count()) {
          return Status::Corruption("bucket slot out of range");
        }
        const double* coords = store_.CoordsAt(s);
        for (const auto& [dim, constraint] : f.bounds) {
          const auto& [is_upper, value] = constraint;
          double c = coords[dim];
          if (is_upper ? (c > value) : (c <= value)) {
            return Status::Corruption(StringPrintf(
                "point %llu violates split on dim %u",
                (unsigned long long)store_.IdAt(s), dim));
          }
        }
      }
      continue;
    }
    if (!n.bucket.empty()) {
      return Status::Corruption("routing node holds points");
    }
    Frame left{n.left, f.bounds};
    left.bounds.push_back({n.split_dim, {true, n.split_value}});
    Frame right{n.right, std::move(f.bounds)};
    right.bounds.push_back({n.split_dim, {false, n.split_value}});
    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  if (seen_points != store_.size()) {
    return Status::Corruption(
        StringPrintf("store holds %zu points but %zu reachable",
                     store_.size(), seen_points));
  }
  return Status::OK();
}

}  // namespace semtree
