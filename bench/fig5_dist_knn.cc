// Copyright 2026 The SemTree Authors
//
// Figure 5 reproduction: "K-nearest time (K=3)" on the distributed
// SemTree when varying the number of partitions (1, 3, 5, 9 — the
// paper's series) and the tree size, with each query's own message
// count (request, forwards, response).

#include <algorithm>

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

void Run() {
  PrintHeader(kFigure, "Distributed K-Nearest Time, K=3",
              "points,query_us,partitions_used,msgs_per_query");
  const size_t kSizes[] = {5000, 10000, 25000, 50000};
  for (size_t n : kSizes) {
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
      if (!(*tree)->BulkInsert(workload.points, 8).ok()) std::abort();

      for (const auto& q : queries) (void)(*tree)->KnnSearch(q, kK);
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

int main() {
  semtree::bench::Run();
  return 0;
}
