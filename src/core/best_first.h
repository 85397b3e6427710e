// Copyright 2026 The SemTree Authors
//
// The shared budgeted best-first traversal that every sequential
// backend's k-NN and range search is built on (DESIGN.md §6). A search
// keeps a min-heap frontier of pending subtrees keyed by a *lower
// bound* on the distance from the query to anything inside; subtrees
// are expanded in ascending-bound order, so the walk
//
//  * proves exactness the moment the cheapest pending bound exceeds
//    the pruning limit (the current k-th distance, or the range
//    radius) — a min-heap pop is a proof about everything not popped;
//  * degrades gracefully under a SearchBudget: stopping early leaves
//    exactly the farthest subtrees unvisited, which is why small
//    budgets retain high recall (bench/recall_speedup.cc);
//  * applies epsilon slack by shrinking the limit to limit/(1+eps),
//    skipping subtrees that could only improve the result marginally.
//
// Backends supply two lambdas: the (relaxed and exact) pruning limits
// and a visit callback that either scans a leaf or pushes children
// with their bounds. Bounds must be admissible (never exceed the true
// distance to any contained point); looseness only costs extra visits,
// never correctness.

#ifndef SEMTREE_CORE_BEST_FIRST_H_
#define SEMTREE_CORE_BEST_FIRST_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/point.h"
#include "core/query.h"

namespace semtree {

/// Charges search work against a SearchBudget. The gauge meters its
/// own spent-so-far counters (SearchStats is an accumulative contract
/// — callers legitimately reuse one stats object across queries, so
/// it cannot double as the budget state) and mirrors every charge
/// into the caller's stats. Not thread-safe; one gauge per search.
class BudgetGauge {
 public:
  BudgetGauge(const SearchBudget& budget, SearchStats* stats)
      : budget_(budget), stats_(stats) {}

  /// Charges one node visit. Returns false — and marks the search
  /// truncated — when the node budget is already spent; the visit must
  /// then not happen.
  bool ChargeNode() {
    if (budget_.max_nodes_visited != 0 &&
        nodes_ >= budget_.max_nodes_visited) {
      MarkTruncated();
      return false;
    }
    ++nodes_;
    ++stats_->nodes_visited;
    return true;
  }

  /// Charges one distance computation (same contract as ChargeNode).
  bool ChargeDistance() {
    if (budget_.max_distance_computations != 0 &&
        distances_ >= budget_.max_distance_computations) {
      MarkTruncated();
      return false;
    }
    ++distances_;
    ++stats_->points_examined;
    return true;
  }

  /// Bulk form for batched leaf scans: grants as many of `want`
  /// distance charges as the budget allows and returns the granted
  /// count. Granting less than `want` marks the search truncated —
  /// exactly the accounting a per-point ChargeDistance loop would
  /// produce (compute `granted` distances, fail on the next), so
  /// batched and scalar scans report identical stats and results.
  size_t ChargeDistances(size_t want) {
    size_t granted = want;
    if (budget_.max_distance_computations != 0) {
      size_t remaining =
          budget_.max_distance_computations > distances_
              ? budget_.max_distance_computations - distances_
              : 0;
      if (remaining < want) {
        granted = remaining;
        MarkTruncated();
      }
    }
    distances_ += granted;
    stats_->points_examined += granted;
    return granted;
  }

  /// Records that the search result may be missing members. A failed
  /// charge also means no further work is possible: the walk must
  /// stop, not merely skip (see exhausted()).
  void MarkTruncated() {
    stats_->truncated = true;
    exhausted_ = true;
  }

  /// True once any charge has failed — the result set is frozen, so
  /// continuing to traverse would burn time without ever improving it.
  bool exhausted() const { return exhausted_; }

  bool truncated() const { return stats_->truncated; }

 private:
  SearchBudget budget_;
  SearchStats* stats_;
  size_t nodes_ = 0;
  size_t distances_ = 0;
  bool exhausted_ = false;
};

/// One pending subtree of a best-first walk: a backend node handle, an
/// admissible lower bound on the distance from the query to anything
/// stored inside it, and a `hint` breaking bound ties (metric trees
/// produce many overlapping balls whose lower bound is 0 — the hint,
/// typically the query's distance to the region's pivot, orders those
/// by actual proximity, which is what keeps recall high when a budget
/// cuts the walk short). The hint never affects pruning, only order.
struct FrontierEntry {
  double bound = 0.0;
  double hint = 0.0;
  int32_t node = -1;
};

/// Min-heap of pending subtrees, cheapest (bound, hint) on top.
/// Remaining ties pop in a deterministic (heap-algorithm) order for a
/// given push sequence, so budgeted searches are reproducible.
class Frontier {
 public:
  void Push(double bound, double hint, int32_t node) {
    heap_.push_back(FrontierEntry{bound, hint, node});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  void Push(double bound, int32_t node) { Push(bound, bound, node); }

  /// Pops the cheapest entry into `*e`; false when empty.
  bool Pop(FrontierEntry* e) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    *e = heap_.back();
    heap_.pop_back();
    return true;
  }

 private:
  // std::push_heap keeps the *largest* on top; invert for a min-heap.
  static bool Later(const FrontierEntry& a, const FrontierEntry& b) {
    if (a.bound != b.bound) return a.bound > b.bound;
    return a.hint > b.hint;
  }

  std::vector<FrontierEntry> heap_;
};

/// The one top-k offer rule, shared by every k-NN loop: the walkers'
/// KnnAccumulator, SemTree's SearchStep on an item's result set Rs and
/// VersionedIndex's delta merge. `heap` is a max-heap under
/// NeighborDistanceThenId holding at most k hits. Once it holds k, a
/// hit that is not strictly better than the top by (distance, id) is
/// rejected before the heap is touched. The top-k set is unique under
/// that order and a rejected tie has the kept hit's value, so the
/// result, the top (tau) and every pruning decision are those of
/// pushing the hit and popping the worst (DESIGN.md §6).
inline void OfferTopK(std::vector<Neighbor>* heap, size_t k, Neighbor hit) {
  if (heap->size() < k) {
    heap->push_back(hit);
    std::push_heap(heap->begin(), heap->end(), NeighborDistanceThenId);
    return;
  }
  if (heap->empty() || !NeighborDistanceThenId(hit, heap->front())) return;
  std::pop_heap(heap->begin(), heap->end(), NeighborDistanceThenId);
  heap->back() = hit;
  std::push_heap(heap->begin(), heap->end(), NeighborDistanceThenId);
}

/// Bounded k-NN accumulator: a max-heap of the best k (distance, id)
/// hits seen so far, exposing the current pruning threshold tau.
class KnnAccumulator {
 public:
  /// `candidates` bounds how many points the search can offer (the
  /// index size): the heap never holds more than min(k, candidates),
  /// so that is all it reserves, and a huge k costs no memory.
  KnnAccumulator(size_t k, size_t candidates) : k_(k) {
    heap_.reserve(std::min(k, candidates));
  }

  void Offer(PointId id, double distance) {
    OfferTopK(&heap_, k_, Neighbor{id, distance});
  }

  /// Current k-th distance; +inf while the result set is not full
  /// (nothing may be pruned yet).
  double tau() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().distance;
  }

  /// The canonical sorted result; the accumulator is consumed.
  std::vector<Neighbor> Take() {
    std::sort_heap(heap_.begin(), heap_.end(), NeighborDistanceThenId);
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<Neighbor> heap_;
};

/// The shared walker. Expands subtrees in ascending-bound order until
/// the frontier drains, `relaxed_limit()` proves no (epsilon-relevant)
/// improvement is possible, or `gauge` runs out of budget.
///
/// `relaxed_limit()` is the epsilon-scaled pruning limit (e.g.
/// `tau * budget.pruning_scale()`); `exact_limit()` is the unscaled
/// one. When the walk stops at a bound the exact limit would still
/// have admitted, the result may be missing members and the gauge
/// marks the search truncated — so `SearchStats::truncated` is set by
/// exhausted budgets AND by epsilon pruning that actually bit, and
/// never by an exact search.
///
/// `visit(node, bound, frontier)` either scans a leaf into the
/// caller's accumulator (charging `gauge` per distance) or pushes each
/// child with an admissible bound (>= `bound`; lower bounds only
/// tighten downward).
template <typename RelaxedLimitFn, typename ExactLimitFn, typename VisitFn>
void BestFirstSearch(int32_t root, BudgetGauge* gauge,
                     RelaxedLimitFn relaxed_limit, ExactLimitFn exact_limit,
                     VisitFn visit) {
  Frontier frontier;
  frontier.Push(0.0, root);
  FrontierEntry e;
  while (frontier.Pop(&e)) {
    if (e.bound > relaxed_limit()) {
      // Min-heap: every remaining subtree is at least this far. If the
      // exact limit would still have admitted this bound, only epsilon
      // justifies stopping — the result is approximate.
      if (e.bound <= exact_limit()) gauge->MarkTruncated();
      break;
    }
    if (!gauge->ChargeNode()) break;
    visit(e.node, e.bound, &frontier);
    // A failed distance charge inside visit freezes the result set:
    // nothing further can be computed, so keeping on popping (and, on
    // backends whose routing nodes charge no distances, walking the
    // entire tree) would only burn the latency the budget was meant
    // to cap.
    if (gauge->exhausted()) break;
  }
}

}  // namespace semtree

#endif  // SEMTREE_CORE_BEST_FIRST_H_
