// Copyright 2026 The SemTree Authors
//
// Ablation bench for the design choices DESIGN.md calls out:
//   (a) FastMap dimensionality k — embedding stress and k-NN recall
//       against the exact semantic-distance ranking;
//   (b) leaf bucket size Bs — query latency and nodes visited;
//   (c) distance weights (alpha, beta, gamma) — recall of the
//       inconsistency ground truth.
// None of these are in the paper's figures; they quantify the knobs the
// paper leaves implicit.

#include <algorithm>
#include <unordered_set>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "distance/metric_audit.h"
#include "kdtree/kdtree.h"
#include "kdtree/mtree.h"
#include "kdtree/vptree.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"
#include "reqverify/inconsistency.h"
#include "semtree/semantic_index.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "ablation";
constexpr size_t kCorpus = 10000;
constexpr size_t kQueries = 50;
constexpr size_t kK = 10;

// Exact top-k triple ids under the semantic distance.
std::vector<TripleId> ExactTopK(const std::vector<Triple>& corpus,
                                const TripleDistance& dist,
                                const Triple& query, size_t k) {
  std::vector<std::pair<double, TripleId>> all;
  all.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    all.emplace_back(dist(query, corpus[i]), i);
  }
  std::partial_sort(all.begin(), all.begin() + std::min(k, all.size()),
                    all.end());
  std::vector<TripleId> out;
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    out.push_back(all[i].second);
  }
  return out;
}

void SweepFastMapDims() {
  Rng rng(3);
  for (size_t dims : {2u, 4u, 8u, 16u}) {
    Workload workload = MakeWorkload(kCorpus, /*seed=*/42, dims);
    IndexDistanceFn oracle = [&](size_t i, size_t j) {
      return (*workload.distance)(workload.triples[i], workload.triples[j]);
    };
    double stress = workload.fastmap->SampleStress(oracle, 20000);
    PrintRow(kFigure, "fastmap_stress", double(dims), stress);

    // Recall@k of embedded k-NN vs the exact semantic ranking, with a
    // generous candidate multiplier of 1 (no rerank window).
    auto tree = KdTree::BulkLoadBalanced(dims, workload.points,
                                         {.bucket_size = 32});
    if (!tree.ok()) std::abort();
    double recall_sum = 0.0;
    for (size_t q = 0; q < kQueries; ++q) {
      TripleId id = rng.Uniform(workload.triples.size());
      const Triple& query = workload.triples[id];
      auto exact = ExactTopK(workload.triples, *workload.distance, query,
                             kK);
      // Exact semantic distances often tie heavily (small vocabulary),
      // so compare by distance value coverage instead of raw ids.
      std::unordered_set<TripleId> exact_set(exact.begin(), exact.end());
      auto hits =
          tree->KnnSearch(workload.fastmap->Coordinates(id), kK);
      size_t overlap = 0;
      for (const auto& hit : hits) overlap += exact_set.count(hit.id);
      recall_sum += double(overlap) / double(kK);
    }
    PrintRow(kFigure, "embedded_recall_at_10", double(dims),
             recall_sum / kQueries);
  }
}

void SweepBucketSize() {
  Workload workload = MakeWorkload(kCorpus);
  auto queries = MakeQueries(workload, 300, /*seed=*/31);
  for (size_t bucket : {4u, 16u, 32u, 64u, 128u, 256u}) {
    auto tree = KdTree::BulkLoadBalanced(
        workload.dimensions(), workload.points, {.bucket_size = bucket});
    if (!tree.ok()) std::abort();
    Stopwatch sw;
    SearchStats stats;
    for (const auto& q : queries) tree->KnnSearch(q, kK, &stats);
    PrintRow(kFigure, "bucket_knn_us", double(bucket),
             sw.ElapsedMicros() / double(queries.size()),
             "points_examined_per_query=" +
                 std::to_string(stats.points_examined / queries.size()));
  }
}

void SweepWeights() {
  Taxonomy vocab = RequirementsVocabulary();
  struct Variant {
    const char* name;
    TripleDistanceWeights weights;
  };
  const Variant kVariants[] = {
      {"uniform", {1.0 / 3, 1.0 / 3, 1.0 / 3}},
      {"subject_heavy", {0.6, 0.2, 0.2}},
      {"predicate_heavy", {0.2, 0.6, 0.2}},
      {"object_heavy", {0.2, 0.2, 0.6}},
      {"subject_object_only", {0.5, 0.0, 0.5}},
  };
  // One corpus; the inconsistency ground truth is weight-independent.
  Workload workload = MakeWorkload(kCorpus);
  TripleStore store;
  for (const Triple& t : workload.triples) store.Add(t);
  Rng rng(37);

  for (const Variant& v : kVariants) {
    SemanticIndexOptions opts;
    opts.weights = v.weights;
    auto index = SemanticIndex::Build(&vocab, workload.triples, opts);
    if (!index.ok()) std::abort();
    double recall_sum = 0.0;
    size_t cases = 0;
    for (size_t attempts = 0; attempts < 2000 && cases < kQueries;
         ++attempts) {
      TripleId id = rng.Uniform(store.size());
      const Triple& source = store.Get(id);
      auto target = MakeTargetTriple(source, vocab, &rng);
      if (!target.ok()) continue;
      auto truth = GroundTruthInconsistencies(store, source, vocab);
      if (truth.empty()) continue;
      std::unordered_set<TripleId> truth_set(truth.begin(), truth.end());
      auto hits = (*index)->KnnQuery(*target, 15);
      if (!hits.ok()) std::abort();
      size_t found = 0;
      for (const auto& hit : *hits) found += truth_set.count(hit.id);
      recall_sum +=
          double(found) / double(std::min<size_t>(15, truth_set.size()));
      ++cases;
    }
    PrintRow(kFigure, std::string("weights_recall_") + v.name,
             double(cases), cases ? recall_sum / cases : 0.0);
  }
}

// FastMap+KdTree (SemTree's design) versus a VP-tree over the raw
// semantic distance: query latency and agreement with the exact
// semantic ranking at equal k.
void CompareAgainstVpTree() {
  Workload workload = MakeWorkload(kCorpus);
  MetricDistanceFn metric = [&](size_t i, size_t j) {
    return (*workload.distance)(workload.triples[i],
                                workload.triples[j]);
  };
  auto audit_dist = [&](const Triple& a, const Triple& b) {
    return (*workload.distance)(a, b);
  };
  auto audit =
      AuditMetric(workload.triples, audit_dist, 20000);
  auto vptree = VpTree::Build(
      workload.triples.size(), metric,
      {.bucket_size = 16, .prune_slack = audit.worst_triangle_excess});
  if (!vptree.ok()) std::abort();
  auto kdtree = KdTree::BulkLoadBalanced(
      workload.dimensions(), workload.points, {.bucket_size = 32});
  if (!kdtree.ok()) std::abort();

  Rng rng(41);
  double kd_us = 0.0, vp_us = 0.0;
  double kd_recall = 0.0, vp_recall = 0.0;
  size_t vp_dist_evals = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    TripleId id = rng.Uniform(workload.triples.size());
    const Triple& query = workload.triples[id];
    auto exact = ExactTopK(workload.triples, *workload.distance, query,
                           kK);
    std::unordered_set<TripleId> exact_set(exact.begin(), exact.end());

    Stopwatch sw;
    auto kd_hits = kdtree->KnnSearch(workload.fastmap->Coordinates(id), kK);
    kd_us += sw.ElapsedMicros();
    size_t kd_overlap = 0;
    for (const auto& hit : kd_hits) kd_overlap += exact_set.count(hit.id);
    kd_recall += double(kd_overlap) / double(kK);

    sw.Restart();
    SearchStats stats;
    auto vp_hits = vptree->KnnSearch(
        [&](size_t i) {
          return (*workload.distance)(query, workload.triples[i]);
        },
        kK, &stats);
    vp_us += sw.ElapsedMicros();
    vp_dist_evals += stats.points_examined;
    size_t vp_overlap = 0;
    for (const auto& hit : vp_hits) vp_overlap += exact_set.count(hit.id);
    vp_recall += double(vp_overlap) / double(kK);
  }
  PrintRow(kFigure, "kdtree_fastmap_knn_us", double(kQueries),
           kd_us / kQueries);
  PrintRow(kFigure, "kdtree_fastmap_recall", double(kQueries),
           kd_recall / kQueries);
  PrintRow(kFigure, "vptree_knn_us", double(kQueries), vp_us / kQueries,
           "dist_evals_per_query=" +
               std::to_string(vp_dist_evals / kQueries));
  PrintRow(kFigure, "vptree_recall", double(kQueries),
           vp_recall / kQueries);

  // Third contender: the dynamic M-tree over the raw distance.
  auto mtree = MTree::Create(
      metric,
      {.node_capacity = 16, .prune_slack = audit.worst_triangle_excess});
  if (!mtree.ok()) std::abort();
  for (size_t i = 0; i < workload.triples.size(); ++i) {
    if (!mtree->Insert(i).ok()) std::abort();
  }
  double mt_us = 0.0, mt_recall = 0.0;
  size_t mt_dist_evals = 0;
  Rng rng2(41);  // Same query stream as above.
  for (size_t q = 0; q < kQueries; ++q) {
    TripleId id = rng2.Uniform(workload.triples.size());
    const Triple& query = workload.triples[id];
    auto exact = ExactTopK(workload.triples, *workload.distance, query,
                           kK);
    std::unordered_set<TripleId> exact_set(exact.begin(), exact.end());
    Stopwatch sw;
    SearchStats stats;
    auto hits = mtree->KnnSearch(
        [&](size_t i) {
          return (*workload.distance)(query, workload.triples[i]);
        },
        kK, &stats);
    mt_us += sw.ElapsedMicros();
    mt_dist_evals += stats.points_examined;
    size_t overlap = 0;
    for (const auto& hit : hits) overlap += exact_set.count(hit.id);
    mt_recall += double(overlap) / double(kK);
  }
  PrintRow(kFigure, "mtree_knn_us", double(kQueries), mt_us / kQueries,
           "dist_evals_per_query=" +
               std::to_string(mt_dist_evals / kQueries));
  PrintRow(kFigure, "mtree_recall", double(kQueries),
           mt_recall / kQueries);
}

void Run() {
  PrintHeader(kFigure, "Design-choice ablations", "x,value");
  SweepFastMapDims();
  SweepBucketSize();
  SweepWeights();
  CompareAgainstVpTree();
}

}  // namespace
}  // namespace bench
}  // namespace semtree

int main() {
  semtree::bench::Run();
  return 0;
}
