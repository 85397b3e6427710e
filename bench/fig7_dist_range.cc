// Copyright 2026 The SemTree Authors
//
// Figure 7 reproduction: "Range Query time" on the distributed SemTree
// for 1/3/5/9 partitions, varying the tree size. Each partition hands
// its border nodes' remote subtrees back to the caller, which runs
// those subqueries in parallel (§III-B.4).

#include <algorithm>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "semtree/semtree.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "fig7";
constexpr size_t kQueries = 150;
constexpr auto kLatency = std::chrono::microseconds(20);

void Run() {
  PrintHeader(kFigure, "Distributed Range Query Time",
              "points,query_us,avg_partitions_visited,msgs_per_query");
  const size_t kSizes[] = {5000, 10000, 25000, 50000};
  for (size_t n : kSizes) {
    Workload workload = MakeWorkload(n);
    auto queries = MakeQueries(workload, kQueries, /*seed=*/19);
    double radius = CalibrateRadius(workload, 0.01, /*seed=*/23);
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

      for (const auto& q : queries) (void)(*tree)->RangeSearch(q, radius);
      Stopwatch sw;
      size_t visited = 0;
      uint64_t messages = 0;
      for (const auto& q : queries) {
        DistributedSearchStats stats;
        auto hits = (*tree)->RangeSearch(q, radius, &stats);
        if (!hits.ok()) std::abort();
        visited += stats.partitions_visited;
        messages += stats.messages;
      }
      double micros = sw.ElapsedMicros() / double(queries.size());
      PrintRow(kFigure,
               std::to_string(partitions) +
                   (partitions == 1 ? " partition" : " partitions"),
               double(n), micros,
               std::to_string(double(visited) / kQueries) + "," +
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
