// Copyright 2026 The SemTree Authors

#include "kdtree/vptree.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/best_first.h"
#include "core/bulk_build.h"

namespace semtree {

/// Phase-1 plan node for the VP-tree build (two-phase scheme of
/// core/bulk_build.h): split decisions over disjoint spans of the
/// object permutation, emitted serially afterwards.
struct VpPlanNode {
  bool is_leaf = true;
  size_t vantage = 0;
  double threshold = 0.0;
  size_t lo = 0;
  size_t hi = 0;
  std::unique_ptr<VpPlanNode> inside;
  std::unique_ptr<VpPlanNode> outside;
};

namespace {

struct VpPlanParams {
  const MetricDistanceFn* distance;
  std::vector<size_t>* objects;
  size_t bucket_size;
  uint64_t seed;
};

// One span's split decision. The vantage pick is seeded from
// (seed, lo, hi) rather than drawn from one sequential stream — every
// node's randomness then depends only on its span, never on the order
// tasks ran in, which is what makes the parallel build reproduce the
// serial one node for node.
void FillVpPlanNode(VpPlanNode* node, const VpPlanParams* p, size_t lo,
                    size_t hi, TaskGroup* group) {
  std::vector<size_t>& objects = *p->objects;
  const MetricDistanceFn& distance = *p->distance;
  size_t count = hi - lo;
  if (count <= p->bucket_size) {
    node->is_leaf = true;
    node->lo = lo;
    node->hi = hi;
    return;
  }
  // Per-span-seeded vantage point; swap it to the front of the span.
  Rng rng(MixSeed(p->seed, lo, hi));
  size_t pick = lo + rng.Uniform(count);
  std::swap(objects[lo], objects[pick]);
  size_t vantage = objects[lo];

  // Partition the rest by the median distance to the vantage point.
  std::vector<std::pair<double, size_t>> tagged;
  tagged.reserve(count - 1);
  for (size_t i = lo + 1; i < hi; ++i) {
    tagged.emplace_back(distance(vantage, objects[i]), objects[i]);
  }
  size_t mid = tagged.size() / 2;
  std::nth_element(tagged.begin(), tagged.begin() + mid, tagged.end());
  double threshold = tagged[mid].first;
  // Stable partition: inside (<= threshold) first. nth_element only
  // guarantees the pivot position, so re-partition explicitly.
  std::vector<size_t> inside = {vantage};
  std::vector<size_t> outside;
  for (const auto& [d, obj] : tagged) {
    (d <= threshold ? inside : outside).push_back(obj);
  }
  if (outside.empty()) {
    // All equidistant: no separation possible; keep one flat leaf.
    node->is_leaf = true;
    node->lo = lo;
    node->hi = hi;
    return;
  }
  size_t cursor = lo;
  for (size_t obj : inside) objects[cursor++] = obj;
  size_t split = cursor;
  for (size_t obj : outside) objects[cursor++] = obj;

  node->is_leaf = false;
  node->vantage = vantage;
  node->threshold = threshold;
  node->inside = std::make_unique<VpPlanNode>();
  node->outside = std::make_unique<VpPlanNode>();
  VpPlanNode* in_child = node->inside.get();
  VpPlanNode* out_child = node->outside.get();
  if (group != nullptr && count >= kParallelCutoff) {
    group->Run([in_child, p, lo, split, group]() {
      FillVpPlanNode(in_child, p, lo, split, group);
    });
    FillVpPlanNode(out_child, p, split, hi, group);
    return;
  }
  FillVpPlanNode(in_child, p, lo, split, group);
  FillVpPlanNode(out_child, p, split, hi, group);
}

}  // namespace

Result<VpTree> VpTree::Build(size_t n, const MetricDistanceFn& distance,
                             const VpTreeOptions& options) {
  if (n == 0) return Status::InvalidArgument("cannot index zero objects");
  if (!distance) {
    return Status::InvalidArgument("distance oracle must be callable");
  }
  VpTree tree(options);
  if (tree.options_.bucket_size == 0) tree.options_.bucket_size = 1;
  tree.size_ = n;
  std::vector<size_t> objects(n);
  for (size_t i = 0; i < n; ++i) objects[i] = i;

  VpPlanNode root;
  VpPlanParams params;
  params.distance = &distance;
  params.objects = &objects;
  params.bucket_size = tree.options_.bucket_size;
  params.seed = options.seed;
  size_t threads = ResolveBuildThreads(options.build_threads);
  if (threads > 1 && n >= kParallelCutoff) {
    ThreadPool pool(threads);
    TaskGroup group(&pool);
    FillVpPlanNode(&root, &params, 0, n, &group);
    group.Wait();
  } else {
    FillVpPlanNode(&root, &params, 0, n, nullptr);
  }
  tree.BuildFromPlan(root, objects);
  return tree;
}

void VpTree::BuildFromPlan(const VpPlanNode& root,
                           const std::vector<size_t>& objects) {
  // Iterative pre-order emission replicating the historical serial
  // recursion's allocation order: node, inside subtree, outside
  // subtree. Parent child-indices are patched as subtrees are reached.
  struct Frame {
    const VpPlanNode* plan;
    int32_t parent;   // Node awaiting a child index, -1 for the root.
    bool is_outside;  // Which child of `parent` this subtree is.
  };
  nodes_.clear();
  std::vector<Frame> stack = {{&root, -1, false}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    nodes_.emplace_back();
    int32_t node = static_cast<int32_t>(nodes_.size() - 1);
    if (f.parent >= 0) {
      (f.is_outside ? nodes_[size_t(f.parent)].outside
                    : nodes_[size_t(f.parent)].inside) = node;
    }
    const VpPlanNode* p = f.plan;
    if (p->is_leaf) {
      nodes_[size_t(node)].bucket.assign(
          objects.begin() + static_cast<ptrdiff_t>(p->lo),
          objects.begin() + static_cast<ptrdiff_t>(p->hi));
      continue;
    }
    Node& n = nodes_[size_t(node)];
    n.is_leaf = false;
    n.vantage = p->vantage;
    n.threshold = p->threshold;
    // Inside subtree is emitted before the outside one: push outside
    // first.
    stack.push_back({p->outside.get(), node, true});
    stack.push_back({p->inside.get(), node, false});
  }
}

// Both searches run the shared best-first walker over metric ball
// bounds: for a routing node with vantage distance d and threshold t,
// anything inside the ball is at least d - t away and anything outside
// at least t - d (triangle inequality; prune_slack widens both for
// near-metric distances, and BallRoundingSlack for rounding). Bounds
// are admissible, so exact budgets reproduce the recursive traversal's
// results; spent budgets leave the farthest balls unvisited.

std::vector<Neighbor> VpTree::KnnSearch(const QueryDistanceFn& dq,
                                        size_t k,
                                        const SearchBudget& budget,
                                        SearchStats* stats,
                                        const ObjectIdFn& object_id) const {
  if (k == 0 || size_ == 0) return {};
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  KnnAccumulator acc(k, size_);
  double scale = budget.pruning_scale();
  double slack = options_.prune_slack;
  BestFirstSearch(
      0, &gauge, [&] { return acc.tau() * scale; }, [&] { return acc.tau(); },
      [&](int32_t nd, double bound, Frontier* frontier) {
        const Node& n = nodes_[size_t(nd)];
        if (n.is_leaf) {
          ++st->leaves_visited;
          for (size_t object : n.bucket) {
            if (!gauge.ChargeDistance()) return;
            acc.Offer(object_id ? object_id(object) : object, dq(object));
          }
          return;
        }
        // The vantage object itself lives in the inside subtree
        // (distance 0 to itself <= threshold), so it is offered when
        // that leaf is scanned; here its distance only steers
        // navigation.
        if (!gauge.ChargeDistance()) return;
        double d = dq(n.vantage);
        double s = slack + BallRoundingSlack(d, n.threshold);
        frontier->Push(std::max(bound, d - n.threshold - s), n.inside);
        frontier->Push(std::max(bound, n.threshold - d - s), n.outside);
      });
  return acc.Take();
}

std::vector<Neighbor> VpTree::RangeSearch(const QueryDistanceFn& dq,
                                          double radius,
                                          const SearchBudget& budget,
                                          SearchStats* stats) const {
  std::vector<Neighbor> out;
  if (size_ == 0 || radius < 0.0) return out;
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  double limit = radius * budget.pruning_scale();
  double slack = options_.prune_slack;
  BestFirstSearch(
      0, &gauge, [&] { return limit; }, [&] { return radius; },
      [&](int32_t nd, double bound, Frontier* frontier) {
        const Node& n = nodes_[size_t(nd)];
        if (n.is_leaf) {
          ++st->leaves_visited;
          for (size_t object : n.bucket) {
            if (!gauge.ChargeDistance()) return;
            double d = dq(object);
            if (d <= radius) out.push_back(Neighbor{object, d});
          }
          return;
        }
        if (!gauge.ChargeDistance()) return;
        double d = dq(n.vantage);
        double s = slack + BallRoundingSlack(d, n.threshold);
        frontier->Push(std::max(bound, d - n.threshold - s), n.inside);
        frontier->Push(std::max(bound, n.threshold - d - s), n.outside);
      });
  std::sort(out.begin(), out.end(), NeighborDistanceThenId);
  return out;
}

void VpTree::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(options_.bucket_size);
  out->PutU64(options_.seed);
  out->PutDouble(options_.prune_slack);
  out->PutU64(size_);
  out->PutU64(nodes_.size());
  for (const Node& n : nodes_) {
    out->PutU8(n.is_leaf ? 1 : 0);
    out->PutU64(n.vantage);
    out->PutDouble(n.threshold);
    out->PutI32(n.inside);
    out->PutI32(n.outside);
    out->PutU64(n.bucket.size());
    for (size_t object : n.bucket) out->PutU64(object);
  }
}

Result<VpTree> VpTree::LoadFrom(persist::ByteReader* in) {
  VpTreeOptions options;
  SEMTREE_ASSIGN_OR_RETURN(options.bucket_size, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(options.seed, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(options.prune_slack, in->Double());
  VpTree tree(options);
  SEMTREE_ASSIGN_OR_RETURN(tree.size_, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t node_count, in->U64());
  if (node_count == 0 || tree.size_ == 0) {
    return Status::Corruption("vp-tree snapshot is empty");
  }
  // 33 = serialized bytes of an empty node.
  SEMTREE_RETURN_NOT_OK(in->CheckCount(node_count, 33));
  tree.nodes_.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node n;
    SEMTREE_ASSIGN_OR_RETURN(uint8_t is_leaf, in->U8());
    n.is_leaf = is_leaf != 0;
    SEMTREE_ASSIGN_OR_RETURN(n.vantage, in->U64());
    SEMTREE_ASSIGN_OR_RETURN(n.threshold, in->Double());
    SEMTREE_ASSIGN_OR_RETURN(n.inside, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(n.outside, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(uint64_t bucket_len, in->U64());
    SEMTREE_RETURN_NOT_OK(in->CheckCount(bucket_len, 8));
    n.bucket.reserve(bucket_len);
    for (uint64_t b = 0; b < bucket_len; ++b) {
      SEMTREE_ASSIGN_OR_RETURN(uint64_t object, in->U64());
      if (object >= tree.size_) {
        return Status::Corruption("vp-tree bucket object out of range");
      }
      n.bucket.push_back(object);
    }
    if (!n.is_leaf &&
        (n.vantage >= tree.size_ || n.inside < 0 || n.outside < 0 ||
         uint64_t(n.inside) >= node_count ||
         uint64_t(n.outside) >= node_count)) {
      return Status::Corruption("vp-tree routing node malformed");
    }
    tree.nodes_.push_back(std::move(n));
  }
  // Reject cyclic topologies (they would overflow the search
  // recursion); the children must form a tree below node 0.
  std::vector<bool> visited(node_count, false);
  std::vector<int32_t> stack = {0};
  while (!stack.empty()) {
    int32_t node = stack.back();
    stack.pop_back();
    if (visited[size_t(node)]) {
      return Status::Corruption("vp-tree snapshot topology has a cycle");
    }
    visited[size_t(node)] = true;
    const Node& n = tree.nodes_[size_t(node)];
    if (!n.is_leaf) {
      stack.push_back(n.inside);
      stack.push_back(n.outside);
    }
  }
  return tree;
}

size_t VpTree::Depth() const {
  struct Frame {
    int32_t node;
    size_t depth;
  };
  size_t max_depth = 0;
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, f.depth);
    const Node& n = nodes_[size_t(f.node)];
    if (!n.is_leaf) {
      stack.push_back({n.inside, f.depth + 1});
      stack.push_back({n.outside, f.depth + 1});
    }
  }
  return max_depth;
}

}  // namespace semtree
