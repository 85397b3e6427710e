// Copyright 2026 The SemTree Authors

#include "kdtree/linear_scan.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/best_first.h"
#include "core/kernels.h"
#include "persist/snapshot.h"

namespace semtree {

Status LinearScanIndex::Insert(const std::vector<double>& coords,
                               PointId id) {
  if (coords.size() != store_.dimensions()) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, index has %zu",
                     coords.size(), store_.dimensions()));
  }
  SEMTREE_RETURN_NOT_OK(CheckFiniteCoords(coords));
  slots_.push_back(store_.Append(coords.data(), id));
  BumpEpoch();
  return Status::OK();
}

Status LinearScanIndex::Remove(const std::vector<double>& coords,
                               PointId id) {
  if (coords.size() != store_.dimensions()) {
    return Status::InvalidArgument(
        StringPrintf("point has %zu dimensions, index has %zu",
                     coords.size(), store_.dimensions()));
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    PointStore::Slot slot = slots_[i];
    if (store_.IdAt(slot) == id &&
        std::equal(coords.begin(), coords.end(), store_.CoordsAt(slot))) {
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
      store_.Release(slot);
      BumpEpoch();
      return Status::OK();
    }
  }
  return Status::NotFound(StringPrintf(
      "point %llu not stored at the given coordinates",
      (unsigned long long)id));
}

void LinearScanIndex::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(store_.dimensions());
  out->PutU64(epoch());
  persist::WritePointStore(store_, out);
  out->PutU32Array(slots_);
}

Result<LinearScanIndex> LinearScanIndex::LoadFrom(
    persist::ByteReader* in) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t dimensions, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t epoch, in->U64());
  LinearScanIndex index(dimensions);
  SEMTREE_ASSIGN_OR_RETURN(index.store_, persist::ReadPointStore(in));
  if (index.store_.dimensions() != dimensions) {
    return Status::Corruption("linear-scan arena dimensionality mismatch");
  }
  SEMTREE_ASSIGN_OR_RETURN(index.slots_, in->U32Array());
  SEMTREE_RETURN_NOT_OK(persist::CheckSlotOwnership(
      index.store_, {&index.slots_}, "linear-scan"));
  index.RestoreEpoch(epoch);
  return index;
}

std::vector<Neighbor> LinearScanIndex::KnnSearch(
    const std::vector<double>& query, size_t k, const SearchBudget& budget,
    SearchStats* stats) const {
  std::vector<Neighbor> all;
  // Wrong-arity and non-finite queries return empty rather than
  // reading out of bounds (the raw-pointer kernel consumes exactly
  // dimensions() doubles).
  if (query.size() != store_.dimensions() || !AllFinite(query)) {
    return all;
  }
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  all.reserve(slots_.size());
  size_t dim = store_.dimensions();
  if (gauge.ChargeNode()) {
    ++st->leaves_visited;
    size_t granted = gauge.ChargeDistances(slots_.size());
    BatchScan(
        metric(), query.data(), dim, granted,
        [&](size_t j) { return store_.CoordsAt(slots_[j]); },
        [&](size_t j, double d) {
          all.push_back(Neighbor{store_.IdAt(slots_[j]), d});
        });
  }
  size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(),
                    NeighborDistanceThenId);
  all.resize(take);
  return all;
}

std::vector<Neighbor> LinearScanIndex::RangeSearch(
    const std::vector<double>& query, double radius,
    const SearchBudget& budget, SearchStats* stats) const {
  std::vector<Neighbor> out;
  // !(radius >= 0) also rejects a NaN radius.
  if (!(radius >= 0.0) || query.size() != store_.dimensions() ||
      !AllFinite(query)) {
    return out;
  }
  SearchStats local;
  SearchStats* st = stats ? stats : &local;
  BudgetGauge gauge(budget, st);
  size_t dim = store_.dimensions();
  if (gauge.ChargeNode()) {
    ++st->leaves_visited;
    size_t granted = gauge.ChargeDistances(slots_.size());
    BatchScan(
        metric(), query.data(), dim, granted,
        [&](size_t j) { return store_.CoordsAt(slots_[j]); },
        [&](size_t j, double d) {
          if (d <= radius) out.push_back(Neighbor{store_.IdAt(slots_[j]), d});
        });
  }
  std::sort(out.begin(), out.end(), NeighborDistanceThenId);
  return out;
}

}  // namespace semtree
