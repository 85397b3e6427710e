// Copyright 2026 The SemTree Authors
//
// QueryEngine throughput: queries/sec as the engine's worker-thread
// count grows, over a sequential backend and over the distributed
// SemTree (where each worker hands its span to one BatchSearch call),
// plus the result-cache hit rate on a repeated-query workload.
// `--smoke` shrinks the corpus and repetitions so CI can keep the
// binary honest without burning minutes.

#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/backends.h"
#include "engine/query_engine.h"
#include "semtree/semtree.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "engine";

struct Config {
  size_t corpus = 20000;
  size_t dims = 8;
  size_t batch = 1024;
  size_t repetitions = 4;
  size_t query_pool = 4096;  // Distinct queries; batches draw from it.
};

std::vector<std::vector<double>> RandomVectors(size_t n, size_t dims,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out(n);
  for (auto& v : out) {
    v.resize(dims);
    for (double& c : v) c = rng.UniformDouble(-1.0, 1.0);
  }
  return out;
}

// A mixed batch drawn uniformly from the query pool; `pool_fraction`
// < 1 concentrates draws on a prefix of the pool, creating repeats for
// the cache series.
std::vector<SpatialQuery> DrawBatch(
    const std::vector<std::vector<double>>& pool, size_t n,
    double pool_fraction, Rng* rng) {
  size_t span = std::max<size_t>(1, size_t(pool_fraction * pool.size()));
  std::vector<SpatialQuery> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& q = pool[rng->Uniform(span)];
    if (i % 2 == 0) {
      batch.push_back(SpatialQuery::Knn(q, 5));
    } else {
      batch.push_back(SpatialQuery::Range(q, 0.4));
    }
  }
  return batch;
}

// Runs `reps` batches through the engine and prints a qps row.
void MeasureQps(QueryEngine* engine, const Config& cfg,
                const std::vector<std::vector<double>>& pool,
                const std::string& series, size_t threads) {
  Rng rng(7);
  // Warm-up batch (VP-tree lazy rebuild, cold caches).
  (void)engine->Run(DrawBatch(pool, cfg.batch, 1.0, &rng));
  size_t done = 0;
  Stopwatch sw;
  for (size_t r = 0; r < cfg.repetitions; ++r) {
    auto result = engine->Run(DrawBatch(pool, cfg.batch, 1.0, &rng));
    if (!result.ok()) std::abort();
    done += result->stats.queries;
  }
  double secs = sw.ElapsedSeconds();
  PrintRow(kFigure, series, double(threads), double(done) / secs,
           "batch=" + std::to_string(cfg.batch));
}

void Run(bool smoke) {
  Config cfg;
  if (smoke) {
    cfg.corpus = 2000;
    cfg.batch = 256;
    cfg.repetitions = 2;
    cfg.query_pool = 512;
  }
  PrintHeader(kFigure,
              "QueryEngine throughput vs worker threads + cache hit rate",
              "threads,qps_or_rate,detail");

  auto rows = RandomVectors(cfg.corpus, cfg.dims, 1);
  auto pool = RandomVectors(cfg.query_pool, cfg.dims, 2);

  // Sequential backend target (uncached, so scaling is real work).
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto index = MakeSpatialIndex(BackendKind::kKdTree, cfg.dims);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!index->Insert(rows[i], PointId(i)).ok()) std::abort();
    }
    QueryEngineOptions opts;
    opts.threads = threads;
    opts.cache_capacity = 0;
    QueryEngine engine(index.get(), opts);
    MeasureQps(&engine, cfg, pool, "kdtree_qps", threads);
  }

  // Distributed target: one BatchSearch call per worker span.
  for (size_t threads : {1u, 2u, 4u}) {
    SemTreeOptions topts;
    topts.dimensions = cfg.dims;
    topts.bucket_size = 32;
    topts.max_partitions = 5;
    auto tree = SemTree::Create(topts);
    if (!tree.ok()) std::abort();
    PointBlock block(cfg.dims);
    block.Reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      block.Append(rows[i].data(), PointId(i));
    }
    if (!(*tree)->BulkLoadBalanced(std::move(block)).ok()) std::abort();
    QueryEngineOptions opts;
    opts.threads = threads;
    opts.cache_capacity = 0;
    QueryEngine engine(tree->get(), opts);
    MeasureQps(&engine, cfg, pool, "semtree_qps", threads);
  }

  // Cache hit rate on a repeated-query workload: batches draw from a
  // small slice of the pool, so most queries recur.
  {
    auto index = MakeSpatialIndex(BackendKind::kKdTree, cfg.dims);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!index->Insert(rows[i], PointId(i)).ok()) std::abort();
    }
    QueryEngineOptions opts;
    opts.threads = 4;
    QueryEngine engine(index.get(), opts);
    Rng rng(9);
    size_t hits = 0;
    size_t total = 0;
    for (size_t r = 0; r < cfg.repetitions + 2; ++r) {
      auto result = engine.Run(DrawBatch(pool, cfg.batch, 0.05, &rng));
      if (!result.ok()) std::abort();
      hits += result->stats.cache_hits;
      total += result->stats.queries;
    }
    PrintRow(kFigure, "cache_hit_rate", 4.0,
             double(hits) / double(total),
             "hits=" + std::to_string(hits) + "/" + std::to_string(total));
  }
}

}  // namespace
}  // namespace bench
}  // namespace semtree

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  semtree::bench::Run(smoke);
  return 0;
}
