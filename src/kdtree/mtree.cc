// Copyright 2026 The SemTree Authors

#include "kdtree/mtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "core/best_first.h"

namespace semtree {

namespace {

}  // namespace

Result<MTree> MTree::Create(MetricDistanceFn distance,
                            MTreeOptions options) {
  if (!distance) {
    return Status::InvalidArgument("distance oracle must be callable");
  }
  if (options.node_capacity < 2) {
    return Status::InvalidArgument("node_capacity must be at least 2");
  }
  return MTree(std::move(distance), options);
}

int32_t MTree::ChooseLeaf(size_t object) {
  int32_t node = root_;
  while (!nodes_[size_t(node)].is_leaf) {
    Node& n = nodes_[size_t(node)];
    // Prefer the routing entry already covering the object; otherwise
    // the one whose radius grows least. Covering radii are enlarged on
    // the way down so the invariant holds even before any split.
    double best_key = std::numeric_limits<double>::infinity();
    size_t best = 0;
    double best_d = 0.0;
    for (size_t i = 0; i < n.entries.size(); ++i) {
      double d = EntryDistance(n.entries[i], object);
      double key = (d <= n.entries[i].radius)
                       ? d
                       : 1e9 + (d - n.entries[i].radius);
      if (key < best_key) {
        best_key = key;
        best = i;
        best_d = d;
      }
    }
    Entry& chosen = n.entries[best];
    chosen.radius = std::max(chosen.radius, best_d);
    node = chosen.child;
  }
  return node;
}

Status MTree::Insert(size_t index) {
  int32_t leaf = ChooseLeaf(index);
  Node& n = nodes_[size_t(leaf)];
  Entry entry;
  entry.object = index;
  if (n.parent >= 0) {
    // The leaf's pivot is the object of the parent entry pointing here.
    const Node& parent = nodes_[size_t(n.parent)];
    for (const Entry& pe : parent.entries) {
      if (pe.child == leaf) {
        entry.parent_distance = distance_(pe.object, index);
        break;
      }
    }
  }
  n.entries.push_back(entry);
  ++size_;
  if (n.entries.size() > options_.node_capacity) SplitNode(leaf);
  return Status::OK();
}

void MTree::SplitNode(int32_t node_index) {
  // Work on copies: splitting may reallocate nodes_.
  std::vector<Entry> entries = std::move(nodes_[size_t(node_index)].entries);
  bool is_leaf = nodes_[size_t(node_index)].is_leaf;
  int32_t parent = nodes_[size_t(node_index)].parent;

  // Promotion: the pair of entries with the largest pairwise distance
  // (exact mM_RAD over the node; capacities are small).
  size_t p1 = 0, p2 = 1;
  double best = -1.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      double d = distance_(entries[i].object, entries[j].object);
      if (d > best) {
        best = d;
        p1 = i;
        p2 = j;
      }
    }
  }
  size_t pivot1 = entries[p1].object;
  size_t pivot2 = entries[p2].object;

  // Generalized-hyperplane partition: each entry goes to the closer
  // pivot (ties to pivot1).
  std::vector<Entry> group1, group2;
  std::vector<double> dist1_list, dist2_list;
  for (Entry& e : entries) {
    double d1 = distance_(pivot1, e.object);
    double d2 = distance_(pivot2, e.object);
    if (d1 <= d2) {
      e.parent_distance = d1;
      group1.push_back(e);
      dist1_list.push_back(d1);
    } else {
      e.parent_distance = d2;
      group2.push_back(e);
      dist2_list.push_back(d2);
    }
  }
  auto covering_radius = [&](const std::vector<Entry>& group,
                             const std::vector<double>& dists) {
    double r = 0.0;
    for (size_t i = 0; i < group.size(); ++i) {
      double extent = dists[i] + (is_leaf ? 0.0 : group[i].radius);
      r = std::max(r, extent);
    }
    return r;
  };
  double r1 = covering_radius(group1, dist1_list);
  double r2 = covering_radius(group2, dist2_list);

  // Reuse `node_index` for group1; allocate a sibling for group2.
  int32_t sibling = int32_t(nodes_.size());
  nodes_.push_back(Node{});
  Node& left = nodes_[size_t(node_index)];
  Node& right = nodes_[size_t(sibling)];
  left.entries = std::move(group1);
  right.is_leaf = is_leaf;
  right.entries = std::move(group2);
  if (!is_leaf) {
    for (const Entry& e : left.entries) {
      nodes_[size_t(e.child)].parent = node_index;
    }
    for (const Entry& e : right.entries) {
      nodes_[size_t(e.child)].parent = sibling;
    }
  }

  if (parent < 0) {
    // Root split: grow the tree by one level.
    int32_t new_root = int32_t(nodes_.size());
    nodes_.push_back(Node{});
    Node& root = nodes_[size_t(new_root)];
    root.is_leaf = false;
    Entry e1;
    e1.object = pivot1;
    e1.radius = r1;
    e1.child = node_index;
    Entry e2;
    e2.object = pivot2;
    e2.radius = r2;
    e2.child = sibling;
    root.entries = {e1, e2};
    nodes_[size_t(node_index)].parent = new_root;
    nodes_[size_t(sibling)].parent = new_root;
    root_ = new_root;
    return;
  }

  // Replace the parent's entry for this node and add the sibling's.
  Node& pnode = nodes_[size_t(parent)];
  nodes_[size_t(sibling)].parent = parent;
  // The parent's own pivot (for parent_distance of the new entries).
  size_t parent_pivot = 0;
  bool has_grandparent = pnode.parent >= 0;
  if (has_grandparent) {
    for (const Entry& ge : nodes_[size_t(pnode.parent)].entries) {
      if (ge.child == parent) {
        parent_pivot = ge.object;
        break;
      }
    }
  }
  for (Entry& pe : pnode.entries) {
    if (pe.child == node_index) {
      pe.object = pivot1;
      pe.radius = r1;
      pe.parent_distance =
          has_grandparent ? distance_(parent_pivot, pivot1) : 0.0;
      break;
    }
  }
  Entry se;
  se.object = pivot2;
  se.radius = r2;
  se.child = sibling;
  se.parent_distance =
      has_grandparent ? distance_(parent_pivot, pivot2) : 0.0;
  pnode.entries.push_back(se);
  if (pnode.entries.size() > options_.node_capacity) SplitNode(parent);
}

// Both searches run the shared budgeted best-first walker
// (core/best_first.h) on covering-ball lower bounds: a routing entry
// with pivot distance d and covering radius r cannot contain anything
// closer than d - r (minus prune_slack for near-metric distances and
// BallRoundingSlack for rounding).

std::vector<Neighbor> MTree::KnnSearch(const QueryDistanceFn& dq,
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
      root_, &gauge, [&] { return acc.tau() * scale + slack; },
      [&] { return acc.tau() + slack; },
      [&](int32_t nd, double bound, Frontier* frontier) {
        const Node& n = nodes_[size_t(nd)];
        if (n.is_leaf) {
          ++st->leaves_visited;
          for (const Entry& e : n.entries) {
            if (!gauge.ChargeDistance()) return;
            acc.Offer(object_id ? object_id(e.object) : e.object,
                      dq(e.object));
          }
          return;
        }
        for (const Entry& e : n.entries) {
          if (!gauge.ChargeDistance()) return;
          double d = dq(e.object);
          double dmin = std::max(
              0.0, d - e.radius - slack - BallRoundingSlack(d, e.radius));
          frontier->Push(std::max(bound, dmin), d, e.child);
        }
      });
  return acc.Take();
}

std::vector<Neighbor> MTree::RangeSearch(const QueryDistanceFn& dq,
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
      root_, &gauge, [&] { return limit; }, [&] { return radius; },
      [&](int32_t nd, double bound, Frontier* frontier) {
        const Node& n = nodes_[size_t(nd)];
        if (n.is_leaf) {
          ++st->leaves_visited;
          for (const Entry& e : n.entries) {
            if (!gauge.ChargeDistance()) return;
            double d = dq(e.object);
            if (d <= radius) out.push_back(Neighbor{e.object, d});
          }
          return;
        }
        for (const Entry& e : n.entries) {
          if (!gauge.ChargeDistance()) return;
          double d = dq(e.object);
          double dmin = std::max(
              0.0, d - e.radius - slack - BallRoundingSlack(d, e.radius));
          frontier->Push(std::max(bound, dmin), d, e.child);
        }
      });
  std::sort(out.begin(), out.end(), NeighborDistanceThenId);
  return out;
}

void MTree::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(options_.node_capacity);
  out->PutU64(options_.seed);
  out->PutDouble(options_.prune_slack);
  out->PutI32(root_);
  out->PutU64(size_);
  out->PutU64(nodes_.size());
  for (const Node& n : nodes_) {
    out->PutU8(n.is_leaf ? 1 : 0);
    out->PutI32(n.parent);
    out->PutU64(n.entries.size());
    for (const Entry& e : n.entries) {
      out->PutU64(e.object);
      out->PutDouble(e.parent_distance);
      out->PutDouble(e.radius);
      out->PutI32(e.child);
    }
  }
}

Result<MTree> MTree::LoadFrom(MetricDistanceFn distance,
                              uint64_t object_bound,
                              persist::ByteReader* in) {
  if (!distance) {
    return Status::InvalidArgument("distance oracle must be callable");
  }
  MTreeOptions options;
  SEMTREE_ASSIGN_OR_RETURN(options.node_capacity, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(options.seed, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(options.prune_slack, in->Double());
  if (options.node_capacity < 2) {
    return Status::Corruption("m-tree snapshot has bad node capacity");
  }
  MTree tree(std::move(distance), options);
  SEMTREE_ASSIGN_OR_RETURN(tree.root_, in->I32());
  SEMTREE_ASSIGN_OR_RETURN(tree.size_, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t node_count, in->U64());
  if (node_count == 0 || tree.root_ < 0 ||
      uint64_t(tree.root_) >= node_count) {
    return Status::Corruption("m-tree snapshot root out of range");
  }
  // 13 = serialized bytes of an empty node (flag, parent, entry count).
  SEMTREE_RETURN_NOT_OK(in->CheckCount(node_count, 13));
  tree.nodes_.clear();
  tree.nodes_.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node n;
    SEMTREE_ASSIGN_OR_RETURN(uint8_t is_leaf, in->U8());
    n.is_leaf = is_leaf != 0;
    SEMTREE_ASSIGN_OR_RETURN(n.parent, in->I32());
    SEMTREE_ASSIGN_OR_RETURN(uint64_t entry_count, in->U64());
    // 28 = serialized bytes per entry.
    SEMTREE_RETURN_NOT_OK(in->CheckCount(entry_count, 28));
    n.entries.reserve(entry_count);
    for (uint64_t j = 0; j < entry_count; ++j) {
      Entry e;
      SEMTREE_ASSIGN_OR_RETURN(e.object, in->U64());
      SEMTREE_ASSIGN_OR_RETURN(e.parent_distance, in->Double());
      SEMTREE_ASSIGN_OR_RETURN(e.radius, in->Double());
      SEMTREE_ASSIGN_OR_RETURN(e.child, in->I32());
      if (e.object >= object_bound) {
        return Status::Corruption("m-tree entry object out of range");
      }
      if (!n.is_leaf &&
          (e.child < 0 || uint64_t(e.child) >= node_count)) {
        return Status::Corruption("m-tree routing entry malformed");
      }
      n.entries.push_back(e);
    }
    if (!n.is_leaf && n.entries.empty()) {
      return Status::Corruption("m-tree routing node has no entries");
    }
    tree.nodes_.push_back(std::move(n));
  }
  // Reject cyclic child links (Height() and the searches assume a
  // tree): every node may be entered at most once from root_.
  std::vector<bool> visited(node_count, false);
  std::vector<int32_t> stack = {tree.root_};
  while (!stack.empty()) {
    int32_t node = stack.back();
    stack.pop_back();
    if (visited[size_t(node)]) {
      return Status::Corruption("m-tree snapshot topology has a cycle");
    }
    visited[size_t(node)] = true;
    const Node& n = tree.nodes_[size_t(node)];
    if (!n.is_leaf) {
      for (const Entry& e : n.entries) stack.push_back(e.child);
    }
  }
  return tree;
}

size_t MTree::Height() const {
  size_t height = 0;
  int32_t node = root_;
  while (!nodes_[size_t(node)].is_leaf) {
    ++height;
    node = nodes_[size_t(node)].entries.front().child;
  }
  return height;
}

Status MTree::CheckInvariants() const {
  // Collect leaf objects per subtree and verify covering radii.
  size_t seen = 0;
  struct Frame {
    int32_t node;
    // Constraints from ancestors: (pivot object, radius).
    std::vector<std::pair<size_t, double>> covers;
  };
  std::vector<Frame> stack = {{root_, {}}};
  double slack = options_.prune_slack + 1e-9;
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const Node& n = nodes_[size_t(f.node)];
    if (n.is_leaf) {
      for (const Entry& e : n.entries) {
        ++seen;
        for (const auto& [pivot, radius] : f.covers) {
          if (distance_(pivot, e.object) > radius + slack) {
            return Status::Corruption(StringPrintf(
                "object %zu escapes covering radius of pivot %zu",
                e.object, pivot));
          }
        }
      }
      continue;
    }
    for (const Entry& e : n.entries) {
      if (e.child < 0 || size_t(e.child) >= nodes_.size()) {
        return Status::Corruption("routing entry with bad child");
      }
      if (nodes_[size_t(e.child)].parent != f.node) {
        return Status::Corruption("parent pointer mismatch");
      }
      Frame child{e.child, f.covers};
      child.covers.emplace_back(e.object, e.radius);
      stack.push_back(std::move(child));
    }
  }
  if (seen != size_) {
    return Status::Corruption(StringPrintf(
        "size_ is %zu but %zu objects reachable", size_, seen));
  }
  return Status::OK();
}

}  // namespace semtree
