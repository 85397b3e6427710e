// Copyright 2026 The SemTree Authors
//
// QueryEngine: the concurrent batch query layer (see DESIGN.md §1).
// Clients hand it batches of mixed k-NN/range queries; it fans them out
// over a worker pool, consults a sharded LRU result cache keyed on
// (query, parameters, index epoch), and aggregates per-batch search
// work and latency percentiles. Two targets are supported behind the
// same API: any sequential SpatialIndex backend (queries run on worker
// threads under a reader lock, mutations take the writer lock), and the
// distributed SemTree (each worker hands its share's cache misses to
// one BatchSearch call, which keeps them all in flight at once as
// separate work items). Batched results are identical to issuing every
// query sequentially against the target.

#ifndef SEMTREE_ENGINE_QUERY_ENGINE_H_
#define SEMTREE_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "core/spatial_index.h"
#include "engine/result_cache.h"
#include "semtree/semtree.h"

namespace semtree {

struct QueryEngineOptions {
  /// Worker threads executing batch queries.
  size_t threads = 4;

  /// Total cached results across shards; 0 disables the cache.
  size_t cache_capacity = 4096;

  /// Smallest number of queries handed to one worker task; batches
  /// smaller than threads * this run on fewer workers.
  size_t min_queries_per_task = 8;
};

/// Outcome of one query of a batch.
struct QueryOutcome {
  std::vector<Neighbor> neighbors;  ///< Sorted by (distance, id).
  bool from_cache = false;
  /// The query's SearchBudget ran out or its epsilon pruning bit:
  /// `neighbors` may be missing members (distances are still true).
  /// Always false for exact budgets. Cached results replay the flag
  /// the original computation produced (the budget is part of the
  /// cache key, so a truncated result can never satisfy an exact
  /// query).
  bool truncated = false;
  double latency_us = 0.0;  ///< Distributed target: its sub-batch's time.
};

/// Latency distribution over one batch, microseconds.
struct LatencySummary {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Aggregated counters for one batch.
struct BatchStats {
  size_t queries = 0;
  size_t knn_queries = 0;
  size_t range_queries = 0;
  size_t cache_hits = 0;
  size_t truncated_queries = 0;   ///< Outcomes flagged truncated.
  SearchStats search;             ///< Summed (sequential targets only).
  size_t partitions_visited = 0;  ///< Summed (distributed target only).
  LatencySummary latency;
  double wall_us = 0.0;  ///< Whole-batch wall time.
};

struct BatchResult {
  std::vector<QueryOutcome> outcomes;  ///< Aligned with the input batch.
  BatchStats stats;
};

/// Concurrent batch executor over one query target.
///
/// Thread-safe: any thread may call Run/Insert/Remove concurrently.
/// The engine does not own its target; the target must outlive it.
class QueryEngine {
 public:
  /// Engine over a sequential backend. The engine serializes its own
  /// mutations against its own queries with a reader/writer lock; the
  /// index must not be mutated behind the engine's back while batches
  /// run. Exception: an index reporting lock_free_reads() (the RCU
  /// wrapper, core/versioned_index.h) is driven without any engine
  /// lock — queries and mutations proceed concurrently, the cache is
  /// keyed at the version each search actually pinned
  /// (SearchStats::version_epoch), and mutations evict only the cache
  /// entries of versions every reader has drained
  /// (oldest_live_epoch + ShardedResultCache::EvictEpochsBelow).
  explicit QueryEngine(SpatialIndex* index, QueryEngineOptions options = {});

  /// Engine over the distributed tree (internally thread-safe, so no
  /// engine-side locking; mutations go through Insert/Remove below so
  /// the cache epoch advances).
  explicit QueryEngine(SemTree* tree, QueryEngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes the batch; outcomes are positionally aligned with
  /// `batch`. Each query runs under its own SearchBudget
  /// (SpatialQuery::budget); sequential-target queries whose budget is
  /// unspecified (exact) inherit the index's default_budget, so a
  /// warm-restarted server keeps serving at its persisted
  /// approximation level. Budgeted outcomes carry `truncated` when
  /// they may be missing members, and the *effective* budget is part
  /// of the result-cache key, so a budgeted and an exact run of the
  /// same query never share a cache slot. Fails up front on a
  /// dimensionality mismatch, negative radius or negative/NaN epsilon,
  /// executing nothing.
  Result<BatchResult> Run(const std::vector<SpatialQuery>& batch);

  /// Executes one query on the calling thread — the per-op hook the
  /// open-loop workload driver (workload/driver.h, DESIGN.md §9)
  /// issues through. Semantically a one-element Run() (same
  /// validation, default-budget inheritance, caching and truncation
  /// replay), but with no worker fan-out and no batch aggregation: the
  /// query runs straight into its outcome, so a cache hit allocates
  /// only its cache key's coordinates and its answer.
  Result<QueryOutcome> RunOne(const SpatialQuery& query);

  /// Inserts through to the target and advances the cache epoch.
  Status Insert(const std::vector<double>& coords, PointId id);

  /// Removes through to the target and advances the cache epoch.
  Status Remove(const std::vector<double>& coords, PointId id);

  /// Saves the sequential target to a v2 snapshot (persist/, DESIGN.md
  /// §5) under the reader/writer lock, so the snapshot captures one
  /// consistent index state even while batches run. Distributed
  /// targets persist through SaveIndexSnapshot instead.
  Status SaveSnapshot(const std::string& path);

  /// A warm-started engine plus the index it owns serving it.
  struct WarmStarted {
    std::unique_ptr<SpatialIndex> index;  ///< Must outlive `engine`.
    std::unique_ptr<QueryEngine> engine;
  };

  /// Stands a fresh engine up from a SaveSnapshot file: the index
  /// loads structure-preserving (including its default SearchBudget —
  /// the restarted engine keeps the saved approximation tuning for
  /// budget-less callers), the engine resumes at the saved index
  /// epoch, and the cache starts empty with zeroed stats.
  static Result<WarmStarted> WarmStart(const std::string& path,
                                       QueryEngineOptions options = {});

  /// Current cache-key epoch (the target's for sequential backends,
  /// engine-tracked for the distributed tree).
  uint64_t epoch() const;

  size_t dimensions() const;
  size_t num_threads() const { return pool_.num_threads(); }
  bool cache_enabled() const { return cache_ != nullptr; }
  ShardedResultCache::Stats cache_stats() const;

 private:
  struct TaskOutput;  // Per-worker partial aggregates.

  Status ValidateOne(const SpatialQuery& query, size_t index) const;
  Status Validate(const std::vector<SpatialQuery>& batch) const;
  // One query against the lock-free (RCU) target: no index_mu_, cache
  // fills re-keyed at the version the search pinned.
  void RunOneUnsynced(const SpatialQuery& q, QueryOutcome* o,
                      TaskOutput* out);
  // After a lock-free mutation: evict drained versions' cache entries
  // once per oldest_live_epoch advance.
  void MaybeEvictDrainedVersions();
  // A span runs `n` queries into the `n` outcomes aligned with them,
  // so RunOne can run a single caller-owned query into one outcome
  // without materializing a batch. Each outcome gets its latency.
  void RunLocalSpan(const SpatialQuery* queries, size_t n,
                    QueryOutcome* outcomes, TaskOutput* out);
  Status RunDistributedSpan(const SpatialQuery* queries, size_t n,
                            QueryOutcome* outcomes, TaskOutput* out);
  void FinalizeStats(const std::vector<TaskOutput>& parts,
                     BatchResult* result);

  // Exactly one target is non-null. The pointer itself is set once in
  // the constructor; what index_mu_ guards is the *pointee* — searches
  // dereference under the shared side, mutations under the exclusive
  // side.
  SpatialIndex* index_ PT_GUARDED_BY(index_mu_) = nullptr;
  // Set (to the same index) when the target reports lock_free_reads():
  // its own RCU machinery replaces index_mu_, so accesses through this
  // alias are deliberately unannotated — that is the point.
  SpatialIndex* unsynced_index_ = nullptr;
  SemTree* tree_ = nullptr;
  QueryEngineOptions options_;
  // Cached at construction so per-query validation (the hottest
  // read-only path) never touches index_mu_.
  size_t dims_ = 0;
  ThreadPool pool_;
  std::unique_ptr<ShardedResultCache> cache_;  // Null when disabled.

  // Sequential target: queries take the lock shared, mutations
  // exclusive, so a search never observes a half-applied insert.
  // Mutable: const observers (epoch) still need the reader side.
  mutable SharedMutex index_mu_;

  // Distributed target: SemTree has no epoch of its own; the engine
  // versions its mutations here.
  std::atomic<uint64_t> tree_epoch_{0};

  // Lock-free target: highest oldest_live_epoch the cache has been
  // swept below already, so concurrent writers do one sweep per
  // advance instead of one per mutation.
  std::atomic<uint64_t> evict_floor_{0};
};

}  // namespace semtree

#endif  // SEMTREE_ENGINE_QUERY_ENGINE_H_
