// Copyright 2026 The SemTree Authors

#include "core/backends.h"

#include <algorithm>

#include "core/kernels.h"
#include "kdtree/kdtree.h"
#include "kdtree/linear_scan.h"
#include "persist/snapshot.h"

namespace semtree {

namespace {

Status CheckInsertable(const std::vector<double>& coords, size_t want) {
  if (coords.size() != want) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  return CheckFiniteCoords(coords);
}

// The metric trees index store slots. Their k-NN walks take the
// slot-to-PointId map, so the top k keeps ties at the k-th distance by
// PointId, as the SpatialIndex contract and LinearScanIndex do.
ObjectIdFn SlotIds(const PointStore& store) {
  return [&store](size_t obj) { return store.IdAt(PointStore::Slot(obj)); };
}

// Range hits come back as slots: translate them to PointIds and restore
// the canonical ordering (slot-order ties may differ from id-order).
std::vector<Neighbor> SlotsToIds(const PointStore& store,
                                 std::vector<Neighbor> hits) {
  for (Neighbor& n : hits) {
    n.id = store.IdAt(PointStore::Slot(n.id));
  }
  std::sort(hits.begin(), hits.end(), NeighborDistanceThenId);
  return hits;
}

// Distance from a query vector to a stored object under the adapter's
// metric, as the metric trees' lazy query oracle. The cosine path
// hoists the query's own norm out of the per-object calls (one O(d)
// pass per search instead of per distance); CosineChordDistance is
// bit-identical to MetricDistance(kCosine, ...).
QueryDistanceFn QueryOracle(Metric metric, const PointStore& store,
                            const std::vector<double>& query) {
  if (metric == Metric::kCosine) {
    double query_norm2 = SquaredNorm(query.data(), query.size());
    return [&store, &query, query_norm2](size_t obj) {
      return CosineChordDistance(query.data(), query_norm2,
                                 store.CoordsAt(PointStore::Slot(obj)),
                                 store.dimensions());
    };
  }
  return [metric, &store, &query](size_t obj) {
    return MetricDistance(metric, query.data(),
                          store.CoordsAt(PointStore::Slot(obj)),
                          store.dimensions());
  };
}

}  // namespace

// --------------------------------------------------------------------
// VpTreeIndex

VpTreeIndex::VpTreeIndex(size_t dimensions, BackendOptions options)
    : options_(options), store_(dimensions) {
  (void)SpatialIndex::set_metric(options.metric);
  (void)SpatialIndex::set_split_policy(options.split_policy);
}

Status VpTreeIndex::Insert(const std::vector<double>& coords, PointId id) {
  SEMTREE_RETURN_NOT_OK(CheckInsertable(coords, store_.dimensions()));
  store_.Append(coords, id);
  {
    // Mutations are externally synchronized against searches, but two
    // concurrent Inserts still need the reset ordered against a
    // EnsureBuilt the other may have started.
    MutexLock lock(build_mu_);
    tree_.reset();  // Static index: rebuild lazily on the next query.
  }
  BumpEpoch();
  return Status::OK();
}

Status VpTreeIndex::Remove(const std::vector<double>&, PointId) {
  return Status::NotSupported("VP-tree does not support removal");
}

Status VpTreeIndex::BulkLoad(const std::vector<KdPoint>& points) {
  if (points.empty()) return Status::OK();
  // Validate everything first so a bad point cannot leave a partial
  // batch appended.
  for (const KdPoint& p : points) {
    SEMTREE_RETURN_NOT_OK(CheckInsertable(p.coords, store_.dimensions()));
  }
  store_.Reserve(points.size());
  for (const KdPoint& p : points) store_.Append(p.coords, p.id);
  {
    MutexLock lock(build_mu_);
    tree_.reset();  // One lazy whole-tree rebuild on the next query.
  }
  BumpEpoch();
  return Status::OK();
}

Status VpTreeIndex::set_metric(Metric metric) {
  // Re-setting the current metric must not queue a rebuild: the ball
  // decomposition is already correct, and the snapshot loader (and
  // any config replay) re-applies the persisted metric on every load.
  if (metric == this->metric()) return Status::OK();
  MutexLock lock(build_mu_);
  // The ball decomposition is metric-dependent; drop any built tree
  // and rebuild lazily under the new distances on the next query.
  tree_.reset();
  options_.metric = metric;  // Keep the stored options in sync.
  return SpatialIndex::set_metric(metric);
}

// Returns the built tree, or null when the index is empty. The caller
// dereferences the pointer *outside* the lock; that is sound because
// searches only race other searches (the SpatialIndex contract makes
// mutations externally synchronized), and every search path builds
// first — once EnsureBuilt returns, the tree is read-only until a
// mutation the caller is already ordered against.
const VpTree* VpTreeIndex::built_tree() const {
  MutexLock lock(build_mu_);
  return tree_.has_value() ? &*tree_ : nullptr;
}

void VpTreeIndex::EnsureBuilt() const {
  MutexLock lock(build_mu_);
  if (tree_.has_value() || store_.size() == 0) return;
  VpTreeOptions vopts;
  vopts.bucket_size = options_.bucket_size;
  vopts.seed = options_.seed;
  // The oracle below is pure reads over the arena, so parallel builds
  // are safe; the built tree is identical either way.
  vopts.build_threads = options_.build_threads;
  const PointStore& store = store_;
  size_t dim = store.dimensions();
  Metric m = metric();
  auto built = VpTree::Build(
      store.size(),
      [&store, dim, m](size_t a, size_t b) {
        return MetricDistance(m, store.CoordsAt(PointStore::Slot(a)),
                              store.CoordsAt(PointStore::Slot(b)), dim);
      },
      vopts);
  // Build only fails on n == 0 or a null oracle; neither happens here.
  tree_.emplace(std::move(*built));
  rebuild_count_.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<Neighbor> VpTreeIndex::KnnSearch(
    const std::vector<double>& query, size_t k, const SearchBudget& budget,
    SearchStats* stats) const {
  if (query.size() != store_.dimensions() || !AllFinite(query)) return {};
  EnsureBuilt();
  const VpTree* tree = built_tree();
  if (tree == nullptr) return {};
  return tree->KnnSearch(QueryOracle(metric(), store_, query), k, budget,
                         stats, SlotIds(store_));
}

std::vector<Neighbor> VpTreeIndex::RangeSearch(
    const std::vector<double>& query, double radius,
    const SearchBudget& budget, SearchStats* stats) const {
  // !(radius >= 0) also rejects a NaN radius.
  if (query.size() != store_.dimensions() || !AllFinite(query) ||
      !(radius >= 0.0)) {
    return {};
  }
  EnsureBuilt();
  const VpTree* tree = built_tree();
  if (tree == nullptr) return {};
  return SlotsToIds(
      store_, tree->RangeSearch(QueryOracle(metric(), store_, query),
                                radius, budget, stats));
}

void VpTreeIndex::SaveTo(persist::ByteWriter* out) const {
  EnsureBuilt();  // Snapshot the structure, not a pending rebuild.
  MutexLock lock(build_mu_);
  out->PutU64(options_.bucket_size);
  out->PutU64(options_.seed);
  out->PutU64(epoch());
  persist::WritePointStore(store_, out);
  out->PutU8(tree_.has_value() ? 1 : 0);
  if (tree_.has_value()) tree_->SaveTo(out);
}

Result<std::unique_ptr<VpTreeIndex>> VpTreeIndex::LoadFrom(
    persist::ByteReader* in, Metric metric) {
  BackendOptions options;
  options.metric = metric;
  SEMTREE_ASSIGN_OR_RETURN(options.bucket_size, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(options.seed, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t epoch, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(PointStore store, persist::ReadPointStore(in));
  auto index =
      std::make_unique<VpTreeIndex>(store.dimensions(), options);
  index->store_ = std::move(store);
  SEMTREE_ASSIGN_OR_RETURN(uint8_t has_tree, in->U8());
  if (has_tree != 0) {
    SEMTREE_ASSIGN_OR_RETURN(VpTree tree, VpTree::LoadFrom(in));
    if (tree.size() != index->store_.size()) {
      return Status::Corruption("vp-tree size disagrees with arena");
    }
    // The index is still private to this function; the lock just keeps
    // the guarded write visible to the analysis (and to whichever
    // thread the caller publishes the index to).
    MutexLock lock(index->build_mu_);
    index->tree_.emplace(std::move(tree));
  } else if (index->store_.size() != 0) {
    return Status::Corruption("vp-tree snapshot missing its tree");
  }
  index->RestoreEpoch(epoch);
  return index;
}

// --------------------------------------------------------------------
// MTreeIndex

MTreeIndex::MTreeIndex(size_t dimensions, BackendOptions options)
    : store_(dimensions) {
  (void)SpatialIndex::set_metric(options.metric);
  MTreeOptions mopts;
  mopts.node_capacity = options.bucket_size;
  mopts.seed = options.seed;
  // The oracle reads the adapter's metric at call time (the adapter is
  // pinned — non-copyable — so `this` stays valid), which lets the
  // snapshot loader bind the oracle before the persisted metric is
  // restored.
  auto tree = MTree::Create(
      [this](size_t a, size_t b) {
        return MetricDistance(metric(),
                              store_.CoordsAt(PointStore::Slot(a)),
                              store_.CoordsAt(PointStore::Slot(b)),
                              store_.dimensions());
      },
      mopts);
  tree_ = std::make_unique<MTree>(std::move(*tree));
}

Status MTreeIndex::Insert(const std::vector<double>& coords, PointId id) {
  SEMTREE_RETURN_NOT_OK(CheckInsertable(coords, store_.dimensions()));
  PointStore::Slot slot = store_.Append(coords, id);
  SEMTREE_RETURN_NOT_OK(tree_->Insert(slot));
  BumpEpoch();
  return Status::OK();
}

Status MTreeIndex::Remove(const std::vector<double>&, PointId) {
  return Status::NotSupported("M-tree does not support removal");
}

Status MTreeIndex::set_metric(Metric metric) {
  if (metric == this->metric()) return Status::OK();
  if (store_.size() != 0) {
    return Status::FailedPrecondition(
        "M-tree routing radii were computed under the current metric; "
        "set the metric before inserting points");
  }
  return SpatialIndex::set_metric(metric);
}

std::vector<Neighbor> MTreeIndex::KnnSearch(
    const std::vector<double>& query, size_t k, const SearchBudget& budget,
    SearchStats* stats) const {
  if (query.size() != store_.dimensions() || !AllFinite(query)) return {};
  return tree_->KnnSearch(QueryOracle(metric(), store_, query), k, budget,
                          stats, SlotIds(store_));
}

std::vector<Neighbor> MTreeIndex::RangeSearch(
    const std::vector<double>& query, double radius,
    const SearchBudget& budget, SearchStats* stats) const {
  // !(radius >= 0) also rejects a NaN radius.
  if (query.size() != store_.dimensions() || !AllFinite(query) ||
      !(radius >= 0.0)) {
    return {};
  }
  return SlotsToIds(
      store_, tree_->RangeSearch(QueryOracle(metric(), store_, query),
                                 radius, budget, stats));
}

void MTreeIndex::SaveTo(persist::ByteWriter* out) const {
  out->PutU64(epoch());
  persist::WritePointStore(store_, out);
  tree_->SaveTo(out);
}

Result<std::unique_ptr<MTreeIndex>> MTreeIndex::LoadFrom(
    persist::ByteReader* in, Metric metric) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t epoch, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(PointStore loaded, persist::ReadPointStore(in));
  BackendOptions options;
  options.metric = metric;
  auto index = std::make_unique<MTreeIndex>(loaded.dimensions(), options);
  index->store_ = std::move(loaded);
  // Re-bind the distance oracle to the loaded arena (the adapter is
  // pinned, so the captured pointer stays valid) under the restored
  // metric.
  MTreeIndex* self = index.get();
  SEMTREE_ASSIGN_OR_RETURN(
      MTree tree,
      MTree::LoadFrom(
          [self](size_t a, size_t b) {
            return MetricDistance(
                self->metric(),
                self->store_.CoordsAt(PointStore::Slot(a)),
                self->store_.CoordsAt(PointStore::Slot(b)),
                self->store_.dimensions());
          },
          index->store_.slot_count(), in));
  if (tree.size() != index->store_.size()) {
    return Status::Corruption("m-tree size disagrees with arena");
  }
  index->tree_ = std::make_unique<MTree>(std::move(tree));
  index->RestoreEpoch(epoch);
  return index;
}

// --------------------------------------------------------------------
// Factory

std::unique_ptr<SpatialIndex> MakeSpatialIndex(BackendKind kind,
                                               size_t dimensions,
                                               BackendOptions options) {
  switch (kind) {
    case BackendKind::kKdTree: {
      KdTreeOptions kopts;
      kopts.bucket_size = options.bucket_size;
      kopts.metric = options.metric;
      kopts.split_policy = options.split_policy;
      kopts.build_threads = options.build_threads;
      return std::make_unique<KdTree>(dimensions, kopts);
    }
    case BackendKind::kLinearScan: {
      auto index = std::make_unique<LinearScanIndex>(dimensions,
                                                     options.metric);
      (void)index->set_split_policy(options.split_policy);
      return index;
    }
    case BackendKind::kVpTree:
      return std::make_unique<VpTreeIndex>(dimensions, options);
    case BackendKind::kMTree: {
      auto index = std::make_unique<MTreeIndex>(dimensions, options);
      (void)index->set_split_policy(options.split_policy);
      return index;
    }
  }
  return nullptr;
}

std::string_view BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kKdTree:
      return "kdtree";
    case BackendKind::kLinearScan:
      return "linear_scan";
    case BackendKind::kVpTree:
      return "vptree";
    case BackendKind::kMTree:
      return "mtree";
  }
  return "unknown";
}

}  // namespace semtree
