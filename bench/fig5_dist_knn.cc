// Copyright 2026 The SemTree Authors
//
// Figure 5 reproduction: "K-nearest time (K=3)" on the distributed
// SemTree when varying the number of partitions (1, 3, 5, 9 — the
// paper's series) and the tree size, with each query's own message
// count (request, forwards, response).
//
//   ./bench_fig5_dist_knn [--smoke]
//
// `--smoke` runs the 5k and 10k sizes only, with trees built by one
// inserting client, so its count columns repeat exactly between runs.
// The full run builds with 8 concurrent clients, whose interleaving
// varies the tree shape, and so the counts, from run to run. Any failed
// insert or search aborts.

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "semtree/semtree.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "fig5";
constexpr size_t kK = 3;
constexpr size_t kQueries = 200;
constexpr auto kLatency = std::chrono::microseconds(20);

void Run(bool smoke) {
  PrintHeader(kFigure, "Distributed K-Nearest Time, K=3",
              "points,query_us,partitions_used,msgs_per_query");
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{5000, 10000}
            : std::vector<size_t>{5000, 10000, 25000, 50000};
  const size_t clients = smoke ? 1 : 8;
  for (size_t n : sizes) {
    Workload workload = MakeWorkload(n);
    auto queries = MakeQueries(workload, kQueries, /*seed=*/11);
    for (size_t partitions : {1u, 3u, 5u, 9u}) {
      SemTreeOptions opts;
      opts.dimensions = workload.dimensions();
      opts.bucket_size = 32;
      opts.max_partitions = partitions;
      opts.partition_capacity =
          partitions == 1 ? SIZE_MAX
                          : opts.bucket_size * partitions;  // Early split: root keeps ~2M-1 routing nodes (§III-C).
      opts.network_latency = kLatency;
      auto tree = SemTree::Create(opts);
      if (!tree.ok()) std::abort();
      if (!(*tree)->BulkInsert(workload.points, clients).ok()) std::abort();

      for (const auto& q : queries) {
        if (!(*tree)->KnnSearch(q, kK).ok()) std::abort();  // Warm-up.
      }
      Stopwatch sw;
      size_t guard = 0;
      uint64_t messages = 0;
      for (const auto& q : queries) {
        DistributedSearchStats stats;
        auto hits = (*tree)->KnnSearch(q, kK, &stats);
        if (!hits.ok()) std::abort();
        guard += hits->size();
        messages += stats.messages;
      }
      double micros = sw.ElapsedMicros() / double(queries.size());
      if (guard == 0) std::abort();
      PrintRow(kFigure,
               std::to_string(partitions) +
                   (partitions == 1 ? " partition" : " partitions"),
               double(n), micros,
               std::to_string((*tree)->PartitionCount()) + "," +
                   std::to_string(double(messages) / kQueries));
    }
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
