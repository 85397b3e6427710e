// Copyright 2026 The SemTree Authors
//
// VersionedIndex implementation. See versioned_index.h for the
// snapshot anatomy and core/epoch.h for the reclamation protocol; the
// division of labor here is strict: everything under write_mu_ may
// touch writer state, the search paths touch only a pinned Version's
// immutable prefixes.

#include "core/versioned_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/best_first.h"
#include "core/kernels.h"

namespace semtree {

namespace {

/// True when `id` appears in the tombstone prefix. The log is bounded
/// by the merge threshold (a few hundred), so a linear scan per hit
/// beats building a hash set per query.
bool IdTombstoned(const PointId* tombs, size_t count, PointId id) {
  for (size_t i = 0; i < count; ++i) {
    if (tombs[i] == id) return true;
  }
  return false;
}

}  // namespace

VersionedIndex::VersionedIndex(size_t dimensions, Options options)
    : dims_(dimensions), options_(options) {
  if (options_.merge_threshold == 0) options_.merge_threshold = 1;
  // Adopt the backend options' tuning as the wrapper's own, so
  // metric()/split_policy() answer consistently with what base builds
  // use (the base Status is always OK here).
  (void)SpatialIndex::set_metric(options_.backend_options.metric);
  (void)SpatialIndex::set_split_policy(options_.backend_options.split_policy);
  MutexLock lock(write_mu_);
  base_ = MakeSpatialIndex(options_.backend, dims_, options_.backend_options);
  delta_ = MakeDelta();
  current_.store(new Version{base_.get(), delta_.get(), 0, 0, 0, epoch()},
                 std::memory_order_seq_cst);
  oldest_live_epoch_.store(epoch(), std::memory_order_release);
}

VersionedIndex::~VersionedIndex() {
  // No reader may be pinned at destruction (standard object lifetime
  // contract); limbo drains unconditionally via RetireList's dtor.
  delete current_.load(std::memory_order_seq_cst);
}

std::unique_ptr<VersionedIndex::Delta> VersionedIndex::MakeDelta() const {
  auto d = std::make_unique<Delta>();
  // Full capacity up front: push_back must never reallocate under a
  // reader (versioned_index.h, "Snapshot anatomy").
  d->add_ids.reserve(options_.merge_threshold);
  d->add_coords.reserve(options_.merge_threshold * dims_);
  d->tomb_base_ids.reserve(options_.merge_threshold);
  d->killed_add_slots.reserve(options_.merge_threshold);
  return d;
}

Status VersionedIndex::CheckPoint(const std::vector<double>& coords) const {
  if (coords.size() != dims_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  return CheckFiniteCoords(coords);
}

void VersionedIndex::PublishLocked(uint64_t version_epoch,
                                   SpatialIndex* dead_base,
                                   Delta* dead_delta) {
  auto* v = new Version{base_.get(),
                        delta_.get(),
                        delta_->add_ids.size(),
                        delta_->tomb_base_ids.size(),
                        delta_->killed_add_slots.size(),
                        version_epoch};
  const Version* old = current_.exchange(v, std::memory_order_seq_cst);
  // One retire epoch covers the whole cohort: the old Version and, on
  // a rebuild, the base/delta only it (and earlier versions, already
  // in limbo) could reference.
  const uint64_t r = epochs_.Advance();
  const uint64_t tag = old->version_epoch;
  retired_.Retire(r, tag, [old] { delete old; });
  if (dead_base != nullptr) {
    retired_.Retire(r, tag, [dead_base] { delete dead_base; });
  }
  if (dead_delta != nullptr) {
    retired_.Retire(r, tag, [dead_delta] { delete dead_delta; });
  }
  retired_.ReclaimBefore(epochs_.MinActiveEpoch());
  oldest_live_epoch_.store(retired_.oldest_tag(version_epoch),
                           std::memory_order_release);
}

std::vector<KdPoint> VersionedIndex::LivePointsLocked() const {
  std::vector<KdPoint> out;
  out.reserve(live_count_.load(std::memory_order_acquire));
  for (size_t i = 0; i < base_points_.size(); ++i) {
    if (!base_removed_[i]) out.push_back(base_points_[i]);
  }
  std::vector<uint8_t> killed(delta_->add_ids.size(), 0);
  for (uint32_t slot : delta_->killed_add_slots) killed[slot] = 1;
  for (size_t i = 0; i < delta_->add_ids.size(); ++i) {
    if (killed[i]) continue;
    const double* row = delta_->add_coords.data() + i * dims_;
    out.push_back(
        KdPoint{std::vector<double>(row, row + dims_), delta_->add_ids[i]});
  }
  return out;
}

Status VersionedIndex::RebuildLocked(std::vector<KdPoint> points,
                                     uint64_t version_epoch) {
  BackendOptions bo = options_.backend_options;
  bo.metric = metric();
  bo.split_policy = split_policy();
  std::unique_ptr<SpatialIndex> next =
      MakeSpatialIndex(options_.backend, dims_, bo);
  SEMTREE_RETURN_NOT_OK(next->BulkLoad(points));
  // Force any deferred build now, on the writer thread, so readers of
  // the new version run pure search code (VP-tree lazy rebuild).
  SEMTREE_RETURN_NOT_OK(next->Freeze());

  SpatialIndex* old_base = base_.release();
  Delta* old_delta = delta_.release();
  base_ = std::move(next);
  delta_ = MakeDelta();
  base_points_ = std::move(points);
  base_index_.clear();
  for (size_t i = 0; i < base_points_.size(); ++i) {
    base_index_.emplace(base_points_[i].id, i);
  }
  base_removed_.assign(base_points_.size(), 0);
  PublishLocked(version_epoch, old_base, old_delta);
  merges_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status VersionedIndex::MaybeMergeLocked() {
  if (delta_->add_ids.size() < options_.merge_threshold &&
      delta_->tomb_base_ids.size() < options_.merge_threshold &&
      delta_->killed_add_slots.size() < options_.merge_threshold) {
    return Status::OK();
  }
  return RebuildLocked(LivePointsLocked(), epoch());
}

Status VersionedIndex::Insert(const std::vector<double>& coords,
                              PointId id) {
  SEMTREE_RETURN_NOT_OK(CheckPoint(coords));
  MutexLock lock(write_mu_);
  SEMTREE_RETURN_NOT_OK(MaybeMergeLocked());
  delta_->add_ids.push_back(id);
  delta_->add_coords.insert(delta_->add_coords.end(), coords.begin(),
                            coords.end());
  live_count_.fetch_add(1, std::memory_order_acq_rel);
  BumpEpoch();
  PublishLocked(epoch());
  return Status::OK();
}

Status VersionedIndex::Remove(const std::vector<double>& coords,
                              PointId id) {
  SEMTREE_RETURN_NOT_OK(CheckPoint(coords));
  MutexLock lock(write_mu_);
  SEMTREE_RETURN_NOT_OK(MaybeMergeLocked());
  // A delta add first, newest match wins (it shadows older state);
  // killing it is a slot append, invisible to pinned readers.
  std::vector<uint8_t> killed(delta_->add_ids.size(), 0);
  for (uint32_t slot : delta_->killed_add_slots) killed[slot] = 1;
  for (size_t i = delta_->add_ids.size(); i-- > 0;) {
    const double* row = delta_->add_coords.data() + i * dims_;
    if (delta_->add_ids[i] == id && !killed[i] &&
        std::equal(coords.begin(), coords.end(), row)) {
      delta_->killed_add_slots.push_back(static_cast<uint32_t>(i));
      live_count_.fetch_sub(1, std::memory_order_acq_rel);
      BumpEpoch();
      PublishLocked(epoch());
      return Status::OK();
    }
  }
  // Then the base: flag the slot for the next merge and tombstone the
  // id for readers.
  auto range = base_index_.equal_range(id);
  for (auto it = range.first; it != range.second; ++it) {
    const size_t slot = it->second;
    if (!base_removed_[slot] && base_points_[slot].coords == coords) {
      base_removed_[slot] = 1;
      delta_->tomb_base_ids.push_back(id);
      live_count_.fetch_sub(1, std::memory_order_acq_rel);
      BumpEpoch();
      PublishLocked(epoch());
      return Status::OK();
    }
  }
  return Status::NotFound("point not in index");
}

Status VersionedIndex::BulkLoad(const std::vector<KdPoint>& points) {
  for (const KdPoint& p : points) {
    SEMTREE_RETURN_NOT_OK(CheckPoint(p.coords));
  }
  if (points.empty()) return Status::OK();
  MutexLock lock(write_mu_);
  std::vector<KdPoint> all = LivePointsLocked();
  all.insert(all.end(), points.begin(), points.end());
  live_count_.store(all.size(), std::memory_order_release);
  BumpEpoch();
  return RebuildLocked(std::move(all), epoch());
}

Status VersionedIndex::Freeze() {
  MutexLock lock(write_mu_);
  if (delta_->add_ids.empty() && delta_->tomb_base_ids.empty() &&
      delta_->killed_add_slots.empty()) {
    return Status::OK();
  }
  return RebuildLocked(LivePointsLocked(), epoch());
}

Status VersionedIndex::set_metric(Metric metric) {
  MutexLock lock(write_mu_);
  if (metric == this->metric()) return Status::OK();
  SEMTREE_RETURN_NOT_OK(SpatialIndex::set_metric(metric));
  // Future base builds (including the one right now) run under the
  // new metric; the M-tree backend accepts it because rebuilds start
  // from an empty tree constructed with it.
  options_.backend_options.metric = metric;
  return RebuildLocked(LivePointsLocked(), epoch());
}

size_t VersionedIndex::pending_reclaims() const {
  MutexLock lock(write_mu_);
  return retired_.size();
}

size_t VersionedIndex::delta_size() const {
  MutexLock lock(write_mu_);
  return delta_->add_ids.size();
}

template <typename Emit>
void VersionedIndex::ScanDelta(const Version& v,
                               const std::vector<double>& query,
                               const SearchBudget& budget, SearchStats* s,
                               Emit emit) const {
  if (v.add_count == 0) return;
  const PointId* add_ids = v.delta->add_ids.data();
  const double* add_coords = v.delta->add_coords.data();
  auto capped = [&](size_t n) {
    if (budget.max_distance_computations > 0) {
      const size_t cap = budget.max_distance_computations;
      const size_t left =
          cap > s->points_examined ? cap - s->points_examined : 0;
      if (n > left) {
        s->truncated = true;
        return left;
      }
    }
    return n;
  };
  if (v.killed_count == 0) {
    const size_t scan = capped(v.add_count);
    BatchScan(
        metric(), query.data(), dims_, scan,
        [&](size_t i) { return add_coords + i * dims_; },
        [&](size_t i, double dist) { emit(add_ids[i], dist); });
    s->points_examined += scan;
    return;
  }
  // Kills present: compact the live slots first so the batch scan
  // stays dense.
  std::vector<uint8_t> killed(v.add_count, 0);
  const uint32_t* ks = v.delta->killed_add_slots.data();
  for (size_t i = 0; i < v.killed_count; ++i) {
    if (ks[i] < v.add_count) killed[ks[i]] = 1;
  }
  std::vector<uint32_t> live;
  live.reserve(v.add_count);
  for (size_t slot = 0; slot < v.add_count; ++slot) {
    if (!killed[slot]) live.push_back(static_cast<uint32_t>(slot));
  }
  const size_t scan = capped(live.size());
  BatchScan(
      metric(), query.data(), dims_, scan,
      [&](size_t i) { return add_coords + live[i] * size_t{dims_}; },
      [&](size_t i, double dist) { emit(add_ids[live[i]], dist); });
  s->points_examined += scan;
}

std::vector<Neighbor> VersionedIndex::KnnSearch(
    const std::vector<double>& query, size_t k, const SearchBudget& budget,
    SearchStats* stats) const {
  SearchStats local;
  SearchStats* s = stats != nullptr ? stats : &local;
  if (k == 0 || query.size() != dims_ || !AllFinite(query)) return {};

  EpochGuard guard(epochs_);
  const Version* v = current_.load(std::memory_order_seq_cst);
  s->version_epoch = v->version_epoch;

  // Base search, optimistic: fetch exactly k first — in the common
  // case none of the k nearest is tombstoned and the base does only
  // the work a plain k-NN would. Only when suppression starves the
  // result below k while the base still had more candidates (it
  // returned a full k) do we pay the over-fetched pass, whose
  // k + tomb_base_count bound guarantees k live survivors whenever
  // the base holds that many. Both passes' traversal costs are
  // reported — the work really happened — so the rare fallback can
  // exceed a distance budget; it keeps `truncated` honest instead.
  const PointId* tombs = v->delta->tomb_base_ids.data();
  auto suppress = [&](std::vector<Neighbor>* hits) {
    if (v->tomb_base_count == 0) return;
    hits->erase(std::remove_if(hits->begin(), hits->end(),
                               [&](const Neighbor& n) {
                                 return IdTombstoned(
                                     tombs, v->tomb_base_count, n.id);
                               }),
                hits->end());
  };
  auto base_knn = [&](size_t fetch) {
    SearchStats base_stats;
    std::vector<Neighbor> hits =
        v->base->KnnSearch(query, fetch, budget, &base_stats);
    s->nodes_visited += base_stats.nodes_visited;
    s->leaves_visited += base_stats.leaves_visited;
    s->points_examined += base_stats.points_examined;
    s->truncated |= base_stats.truncated;
    return hits;
  };
  std::vector<Neighbor> hits = base_knn(k);
  const bool base_exhausted = hits.size() < k;
  suppress(&hits);
  if (hits.size() < k && !base_exhausted && v->tomb_base_count > 0) {
    hits = base_knn(k + v->tomb_base_count);
    suppress(&hits);
  }

  // Delta scan: the un-killed adds prefix, batched, under whatever
  // distance budget the base left over, offered to the same bounded
  // top-k heap the base hits seed. Appending every delta point and
  // sorting the union would make per-query work (allocation and sort,
  // not distances) grow with the delta, which is exactly the
  // read-side cost this index exists to avoid.
  KnnAccumulator acc(k, hits.size() + v->add_count);
  for (const Neighbor& n : hits) acc.Offer(n.id, n.distance);
  ScanDelta(*v, query, budget, s,
            [&](PointId id, double dist) { acc.Offer(id, dist); });
  return acc.Take();
}

std::vector<Neighbor> VersionedIndex::RangeSearch(
    const std::vector<double>& query, double radius,
    const SearchBudget& budget, SearchStats* stats) const {
  SearchStats local;
  SearchStats* s = stats != nullptr ? stats : &local;
  if (query.size() != dims_ || !AllFinite(query) || radius < 0.0) return {};

  EpochGuard guard(epochs_);
  const Version* v = current_.load(std::memory_order_seq_cst);
  s->version_epoch = v->version_epoch;

  SearchStats base_stats;
  std::vector<Neighbor> hits =
      v->base->RangeSearch(query, radius, budget, &base_stats);
  s->nodes_visited += base_stats.nodes_visited;
  s->leaves_visited += base_stats.leaves_visited;
  s->points_examined += base_stats.points_examined;
  s->truncated |= base_stats.truncated;
  if (v->tomb_base_count > 0) {
    const PointId* tombs = v->delta->tomb_base_ids.data();
    hits.erase(std::remove_if(hits.begin(), hits.end(),
                              [&](const Neighbor& n) {
                                return IdTombstoned(
                                    tombs, v->tomb_base_count, n.id);
                              }),
               hits.end());
  }

  ScanDelta(*v, query, budget, s,
            [&](PointId id, double dist) {
              if (dist <= radius) hits.push_back(Neighbor{id, dist});
            });

  std::sort(hits.begin(), hits.end(), NeighborDistanceThenId);
  return hits;
}

}  // namespace semtree
