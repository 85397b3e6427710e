// Copyright 2026 The SemTree Authors

#include "engine/query_engine.h"

#include <algorithm>
#include <future>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "persist/index_snapshot.h"

namespace semtree {

// Partial aggregates of one worker task. Tasks write disjoint outcome
// spans and their own TaskOutput, so the fan-out needs no locking.
struct QueryEngine::TaskOutput {
  size_t cache_hits = 0;
  size_t truncated = 0;
  SearchStats search;
  size_t partitions_visited = 0;
  std::vector<double> latencies_us;
  Status status;
};

namespace {

size_t ClampThreads(size_t threads) { return threads < 1 ? 1 : threads; }

void Accumulate(const SearchStats& from, SearchStats* into) {
  into->nodes_visited += from.nodes_visited;
  into->leaves_visited += from.leaves_visited;
  into->points_examined += from.points_examined;
  into->truncated = into->truncated || from.truncated;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

QueryEngine::QueryEngine(SpatialIndex* index, QueryEngineOptions options)
    : index_(index),
      options_(options),
      dims_(index->dimensions()),
      pool_(ClampThreads(options.threads)) {
  // An RCU target synchronizes its own readers against its writer
  // (core/versioned_index.h); taking index_mu_ on top would reintroduce
  // exactly the writer-stalls-every-reader coupling it exists to
  // remove. Decided once here: lock_free_reads() is a static property
  // of the backend, not of any one call.
  if (index->lock_free_reads()) unsynced_index_ = index;
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedResultCache>(options_.cache_shards,
                                                  options_.cache_capacity);
  }
}

QueryEngine::QueryEngine(SemTree* tree, QueryEngineOptions options)
    : tree_(tree),
      options_(options),
      dims_(tree->options().dimensions),
      pool_(ClampThreads(options.threads)) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedResultCache>(options_.cache_shards,
                                                  options_.cache_capacity);
  }
}

size_t QueryEngine::dimensions() const { return dims_; }

uint64_t QueryEngine::epoch() const {
  if (unsynced_index_ != nullptr) return unsynced_index_->epoch();
  if (index_ != nullptr) {
    SharedReaderLock lock(index_mu_);
    return index_->epoch();
  }
  // Fold in the tree's rebalance epoch: it is bumped at the start AND
  // end of every structural rebalance step (odd mid-step), so entries
  // cached against routing that a split is rewriting can never be
  // served once the step lands — the combined epoch has already moved
  // on. Both counters are monotone, so the sum is too.
  return tree_epoch_.load(std::memory_order_acquire) +
         tree_->rebalance_epoch();
}

ShardedResultCache::Stats QueryEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ShardedResultCache::Stats{};
}

Status QueryEngine::ValidateOne(const SpatialQuery& query,
                                size_t index) const {
  if (query.coords.size() != dimensions()) {
    return Status::InvalidArgument(StringPrintf(
        "query %zu has %zu dimensions, target has %zu", index,
        query.coords.size(), dimensions()));
  }
  if (!AllFinite(query.coords)) {
    return Status::InvalidArgument(StringPrintf(
        "query %zu has non-finite (NaN/Inf) coordinates", index));
  }
  // !(radius >= 0) also rejects NaN, which would defeat every
  // pruning comparison.
  if (query.type == QueryType::kRange && !(query.radius >= 0.0)) {
    return Status::InvalidArgument(
        StringPrintf("query %zu has a negative or NaN radius", index));
  }
  // NaN fails both comparisons, so it is rejected here too.
  if (!(query.budget.epsilon >= 0.0)) {
    return Status::InvalidArgument(StringPrintf(
        "query %zu has a negative or NaN budget epsilon", index));
  }
  return Status::OK();
}

Status QueryEngine::Validate(const std::vector<SpatialQuery>& batch) const {
  for (size_t i = 0; i < batch.size(); ++i) {
    SEMTREE_RETURN_NOT_OK(ValidateOne(batch[i], i));
  }
  return Status::OK();
}

void QueryEngine::RunOneUnsynced(const SpatialQuery& q, QueryOutcome* o,
                                 TaskOutput* out) {
  const SearchBudget& budget =
      q.budget.exact() ? unsynced_index_->default_budget() : q.budget;
  CacheKey key;
  bool hit = false;
  if (cache_ != nullptr) {
    key = CacheKey::Make(q, unsynced_index_->epoch(), budget,
                         unsynced_index_->metric());
    hit = cache_->Lookup(key, &o->neighbors, &o->truncated);
  }
  if (hit) {
    o->from_cache = true;
    ++out->cache_hits;
  } else {
    SearchStats sstats;
    o->neighbors =
        q.type == QueryType::kKnn
            ? unsynced_index_->KnnSearch(q.coords, q.k, budget, &sstats)
            : unsynced_index_->RangeSearch(q.coords, q.radius, budget,
                                           &sstats);
    o->truncated = sstats.truncated;
    Accumulate(sstats, &out->search);
    if (cache_ != nullptr) {
      // The probe key carried the live epoch, but a concurrent writer
      // may have published between probe and pin — or the pin may
      // trail a publish the probe already saw. Either way the honest
      // key is the version the search actually ran against, which the
      // RCU wrapper reports back; filling under any other epoch would
      // let a reader pinned to version V surface V+1's results.
      key.epoch = sstats.version_epoch;
      cache_->Put(key, o->neighbors, o->truncated);
    }
  }
  if (o->truncated) ++out->truncated;
}

void QueryEngine::RunLocalSpan(const SpatialQuery* batch, size_t lo,
                               size_t hi,
                               std::vector<QueryOutcome>* outcomes,
                               TaskOutput* out) {
  for (size_t i = lo; i < hi; ++i) {
    const SpatialQuery& q = batch[i];
    QueryOutcome& o = (*outcomes)[i];
    Stopwatch sw;
    if (unsynced_index_ != nullptr) {
      RunOneUnsynced(q, &o, out);
    } else {
      // Shared lock: the epoch read, cache probe and search see one
      // consistent index state even while another thread mutates
      // through Insert/Remove (which take the lock exclusively).
      SharedReaderLock lock(index_mu_);
      // Queries with an unspecified (exact) budget inherit the
      // index's default — that is how a warm-restarted server keeps
      // serving at its persisted approximation level. An explicit
      // per-query budget always wins.
      const SearchBudget& budget =
          q.budget.exact() ? index_->default_budget() : q.budget;
      CacheKey key;
      bool hit = false;
      if (cache_ != nullptr) {
        // The key carries the *effective* budget, so a truncated
        // result can never be served where an exact one was computed,
        // and retuning the default re-keys subsequent queries.
        key = CacheKey::Make(q, index_->epoch(), budget,
                             index_->metric());
        hit = cache_->Lookup(key, &o.neighbors, &o.truncated);
      }
      if (hit) {
        o.from_cache = true;
        ++out->cache_hits;
      } else {
        SearchStats sstats;
        o.neighbors =
            q.type == QueryType::kKnn
                ? index_->KnnSearch(q.coords, q.k, budget, &sstats)
                : index_->RangeSearch(q.coords, q.radius, budget,
                                      &sstats);
        o.truncated = sstats.truncated;
        Accumulate(sstats, &out->search);
        if (cache_ != nullptr) cache_->Put(key, o.neighbors, o.truncated);
      }
      if (o.truncated) ++out->truncated;
    }
    o.latency_us = sw.ElapsedMicros();
    out->latencies_us.push_back(o.latency_us);
  }
}

Status QueryEngine::RunDistributedSpan(
    const SpatialQuery* batch, size_t lo, size_t hi,
    std::vector<QueryOutcome>* outcomes, TaskOutput* out) {
  Stopwatch sw;
  // Mutation epoch + rebalance epoch (see epoch()): read once per
  // span, so a rebalance step landing mid-span invalidates both this
  // span's lookups and its stores.
  uint64_t ep = tree_epoch_.load(std::memory_order_acquire) +
                tree_->rebalance_epoch();

  // Probe the cache first; only the misses go to the tree, all in one
  // BatchSearch call that keeps them in flight together.
  std::vector<size_t> miss;
  miss.reserve(hi - lo);
  for (size_t i = lo; i < hi; ++i) {
    QueryOutcome& o = (*outcomes)[i];
    if (cache_ != nullptr &&
        cache_->Lookup(CacheKey::Make(batch[i], ep), &o.neighbors,
                       &o.truncated)) {
      o.from_cache = true;
      ++out->cache_hits;
      if (o.truncated) ++out->truncated;
    } else {
      miss.push_back(i);
    }
  }

  if (!miss.empty()) {
    std::vector<SpatialQuery> sub;
    sub.reserve(miss.size());
    for (size_t i : miss) sub.push_back(batch[i]);
    DistributedSearchStats dstats;
    std::vector<uint8_t> truncated;
    auto results = tree_->BatchSearch(sub, &dstats, &truncated);
    if (!results.ok()) return results.status();
    out->partitions_visited += dstats.partitions_visited;
    for (size_t j = 0; j < miss.size(); ++j) {
      QueryOutcome& o = (*outcomes)[miss[j]];
      o.neighbors = std::move((*results)[j]);
      o.truncated = truncated[j] != 0;
      if (o.truncated) ++out->truncated;
      if (cache_ != nullptr) {
        cache_->Put(CacheKey::Make(batch[miss[j]], ep), o.neighbors,
                    o.truncated);
      }
    }
  }

  // One BatchSearch call answers the whole span, so each query is
  // charged the span's wall time (see QueryOutcome::latency_us).
  double span_us = sw.ElapsedMicros();
  for (size_t i = lo; i < hi; ++i) {
    (*outcomes)[i].latency_us = span_us;
    out->latencies_us.push_back(span_us);
  }
  return Status::OK();
}

void QueryEngine::FinalizeStats(std::vector<TaskOutput>& parts,
                                BatchResult* result) {
  std::vector<double> latencies;
  for (TaskOutput& part : parts) {
    result->stats.cache_hits += part.cache_hits;
    result->stats.truncated_queries += part.truncated;
    result->stats.partitions_visited += part.partitions_visited;
    Accumulate(part.search, &result->stats.search);
    latencies.insert(latencies.end(), part.latencies_us.begin(),
                     part.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result->stats.latency.p50_us = Percentile(latencies, 0.50);
  result->stats.latency.p90_us = Percentile(latencies, 0.90);
  result->stats.latency.p99_us = Percentile(latencies, 0.99);
  result->stats.latency.max_us =
      latencies.empty() ? 0.0 : latencies.back();
}

Result<BatchResult> QueryEngine::Run(
    const std::vector<SpatialQuery>& batch) {
  SEMTREE_RETURN_NOT_OK(Validate(batch));
  BatchResult result;
  result.stats.queries = batch.size();
  for (const SpatialQuery& q : batch) {
    (q.type == QueryType::kKnn ? result.stats.knn_queries
                               : result.stats.range_queries)++;
  }
  if (batch.empty()) return result;

  size_t per_task = std::max<size_t>(options_.min_queries_per_task, 1);
  size_t tasks = std::min(pool_.num_threads(),
                          (batch.size() + per_task - 1) / per_task);
  if (tasks < 1) tasks = 1;
  size_t chunk = (batch.size() + tasks - 1) / tasks;

  result.outcomes.resize(batch.size());
  std::vector<TaskOutput> parts(tasks);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  Stopwatch wall;
  for (size_t t = 0; t < tasks; ++t) {
    size_t lo = t * chunk;
    size_t hi = std::min(batch.size(), lo + chunk);
    futures.push_back(pool_.Submit([this, &batch, lo, hi, &result,
                                    part = &parts[t]]() {
      if (index_ != nullptr) {
        RunLocalSpan(batch.data(), lo, hi, &result.outcomes, part);
      } else {
        part->status = RunDistributedSpan(batch.data(), lo, hi,
                                          &result.outcomes, part);
      }
    }));
  }
  for (std::future<void>& f : futures) f.get();
  result.stats.wall_us = wall.ElapsedMicros();

  for (TaskOutput& part : parts) {
    SEMTREE_RETURN_NOT_OK(part.status);
  }
  FinalizeStats(parts, &result);
  return result;
}

Result<QueryOutcome> QueryEngine::RunOne(const SpatialQuery& query) {
  SEMTREE_RETURN_NOT_OK(ValidateOne(query, 0));
  std::vector<QueryOutcome> outcomes(1);
  TaskOutput out;
  if (index_ != nullptr) {
    RunLocalSpan(&query, 0, 1, &outcomes, &out);
  } else {
    SEMTREE_RETURN_NOT_OK(
        RunDistributedSpan(&query, 0, 1, &outcomes, &out));
  }
  return std::move(outcomes[0]);
}

Status QueryEngine::SaveSnapshot(const std::string& path) {
  if (index_ == nullptr) {
    return Status::NotSupported(
        "snapshot the distributed tree through SaveIndexSnapshot");
  }
  // Reader side of the lock: concurrent batches may keep querying, but
  // no Insert/Remove can interleave with the serialization.
  SharedReaderLock lock(index_mu_);
  return persist::SaveSpatialIndex(*index_, path);
}

Result<QueryEngine::WarmStarted> QueryEngine::WarmStart(
    const std::string& path, QueryEngineOptions options) {
  WarmStarted out;
  SEMTREE_ASSIGN_OR_RETURN(out.index, persist::LoadSpatialIndex(path));
  // The loaded backend resumed at its saved epoch, so the fresh
  // (empty, zero-stat) cache keys line up with where the saved engine
  // left off.
  out.engine = std::make_unique<QueryEngine>(out.index.get(), options);
  return out;
}

void QueryEngine::MaybeEvictDrainedVersions() {
  if (cache_ == nullptr) return;
  const uint64_t floor = unsynced_index_->oldest_live_epoch();
  uint64_t prev = evict_floor_.load(std::memory_order_acquire);
  // First writer to raise the floor sweeps; rivals at the same floor
  // skip, so the cache is walked once per advance, not once per
  // mutation.
  while (floor > prev) {
    if (evict_floor_.compare_exchange_weak(prev, floor,
                                           std::memory_order_acq_rel)) {
      cache_->EvictEpochsBelow(floor);
      return;
    }
  }
}

Status QueryEngine::Insert(const std::vector<double>& coords, PointId id) {
  if (unsynced_index_ != nullptr) {
    // No engine lock: the RCU target publishes the mutation itself;
    // in-flight readers keep searching their pinned versions.
    Status st = unsynced_index_->Insert(coords, id);
    if (st.ok()) MaybeEvictDrainedVersions();
    return st;
  }
  if (index_ != nullptr) {
    SharedMutexLock lock(index_mu_);
    return index_->Insert(coords, id);  // Bumps the index epoch.
  }
  Status st = tree_->Insert(coords, id);
  if (st.ok()) tree_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return st;
}

Status QueryEngine::Remove(const std::vector<double>& coords, PointId id) {
  if (unsynced_index_ != nullptr) {
    Status st = unsynced_index_->Remove(coords, id);
    if (st.ok()) MaybeEvictDrainedVersions();
    return st;
  }
  if (index_ != nullptr) {
    SharedMutexLock lock(index_mu_);
    return index_->Remove(coords, id);
  }
  Status st = tree_->Remove(coords, id);
  if (st.ok()) tree_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return st;
}

}  // namespace semtree
