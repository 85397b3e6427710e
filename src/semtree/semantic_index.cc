// Copyright 2026 The SemTree Authors

#include "semtree/semantic_index.h"

#include <algorithm>

namespace semtree {

Result<std::unique_ptr<SemanticIndex>> SemanticIndex::Build(
    const Taxonomy* taxonomy, std::vector<Triple> corpus,
    SemanticIndexOptions options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus must not be empty");
  }
  SEMTREE_ASSIGN_OR_RETURN(
      TripleDistance distance,
      TripleDistance::Make(taxonomy, options.weights, options.element));

  std::unique_ptr<SemanticIndex> index(new SemanticIndex(
      options, std::move(distance), std::move(corpus)));
  const std::vector<Triple>& triples = index->corpus_;

  // Train the FastMap embedding on the corpus, resolved once, over the
  // build threads: Eq. (1) on prepared triples is safe to call from
  // several threads (DESIGN.md §13, "Thread contract").
  const TripleDistance& distance_fn = index->distance_;
  std::vector<PreparedTriple> prepared;
  prepared.reserve(triples.size());
  for (const Triple& t : triples) prepared.push_back(distance_fn.Prepare(t));
  SEMTREE_ASSIGN_OR_RETURN(
      FastMap fm,
      FastMap::Train(
          triples.size(),
          [&distance_fn, &prepared](size_t i, size_t j) {
            return distance_fn(prepared[i], prepared[j]);
          },
          options.fastmap, options.build_threads));
  index->SetFastMap(std::move(fm));
  SEMTREE_RETURN_NOT_OK(index->BuildTree());
  return index;
}

Result<std::unique_ptr<SemanticIndex>> SemanticIndex::Restore(
    const Taxonomy* taxonomy, std::vector<Triple> corpus, FastMap fastmap,
    SemanticIndexOptions options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus must not be empty");
  }
  if (fastmap.size() != corpus.size()) {
    return Status::InvalidArgument(
        "embedding and corpus sizes disagree");
  }
  SEMTREE_ASSIGN_OR_RETURN(
      TripleDistance distance,
      TripleDistance::Make(taxonomy, options.weights, options.element));
  std::unique_ptr<SemanticIndex> index(new SemanticIndex(
      options, std::move(distance), std::move(corpus)));
  index->SetFastMap(std::move(fastmap));
  SEMTREE_RETURN_NOT_OK(index->BuildTree());
  return index;
}

Result<std::unique_ptr<SemanticIndex>> SemanticIndex::RestoreWithTree(
    const Taxonomy* taxonomy, std::vector<Triple> corpus, FastMap fastmap,
    std::unique_ptr<SemTree> tree, SemanticIndexOptions options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus must not be empty");
  }
  if (fastmap.size() != corpus.size()) {
    return Status::InvalidArgument("embedding and corpus sizes disagree");
  }
  if (tree == nullptr || tree->size() != corpus.size() ||
      tree->options().dimensions != fastmap.dimensions()) {
    return Status::InvalidArgument(
        "restored tree disagrees with the embedding");
  }
  SEMTREE_ASSIGN_OR_RETURN(
      TripleDistance distance,
      TripleDistance::Make(taxonomy, options.weights, options.element));
  std::unique_ptr<SemanticIndex> index(new SemanticIndex(
      options, std::move(distance), std::move(corpus)));
  index->SetFastMap(std::move(fastmap));
  index->tree_ = std::move(tree);
  return index;
}

Status SemanticIndex::BuildTree() {
  SemTreeOptions topts;
  topts.dimensions = fastmap_->dimensions();
  topts.bucket_size = options_.bucket_size;
  topts.max_partitions = options_.max_partitions;
  topts.partition_capacity = options_.partition_capacity;
  topts.network_latency = options_.network_latency;
  topts.split_policy = options_.split_policy;
  topts.build_threads = options_.build_threads;
  SEMTREE_ASSIGN_OR_RETURN(std::unique_ptr<SemTree> tree,
                           SemTree::Create(std::move(topts)));
  tree_ = std::move(tree);

  // Feed the tree straight from the embedding's flat arena — one
  // contiguous block, no per-point coordinate vectors.
  PointBlock points = fastmap_->ToPointBlock();
  if (options_.bulk_load) {
    return tree_->BulkLoadBalanced(std::move(points));
  }
  return tree_->BulkInsert(
      points, std::max<size_t>(1, options_.build_client_threads));
}

void SemanticIndex::SetFastMap(FastMap fastmap) {
  fastmap_ = std::make_unique<FastMap>(std::move(fastmap));
  pivots_.clear();
  for (const auto& [a, b] : fastmap_->pivots()) {
    pivots_.push_back(distance_.Compile(distance_.Prepare(corpus_[a])));
    pivots_.push_back(distance_.Compile(distance_.Prepare(corpus_[b])));
  }
}

std::vector<double> SemanticIndex::Embed(const Triple& query) const {
  return Embed(distance_.Prepare(query));
}

std::vector<double> SemanticIndex::Embed(const PreparedTriple& query) const {
  std::vector<double> to_pivots(pivots_.size());
  for (size_t i = 0; i < pivots_.size(); ++i) {
    to_pivots[i] = distance_(query, pivots_[i]);
  }
  return fastmap_->Project(to_pivots);
}

std::vector<SemanticIndex::Hit> SemanticIndex::MakeHits(
    const PreparedTriple& query,
    const std::vector<Neighbor>& neighbors) const {
  std::vector<Hit> hits;
  hits.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    Hit hit;
    hit.id = n.id;
    hit.embedded_distance = n.distance;
    hit.semantic_distance = distance_(query, distance_.Prepare(corpus_[n.id]));
    hits.push_back(hit);
  }
  if (options_.rerank_by_semantic_distance) {
    std::stable_sort(hits.begin(), hits.end(),
                     [](const Hit& a, const Hit& b) {
                       return a.semantic_distance < b.semantic_distance;
                     });
  }
  return hits;
}

Result<std::vector<SemanticIndex::Hit>> SemanticIndex::KnnQuery(
    const Triple& query, size_t k) const {
  const PreparedTriple prepared = distance_.Prepare(query);
  SEMTREE_ASSIGN_OR_RETURN(std::vector<Neighbor> neighbors,
                           tree_->KnnSearch(Embed(prepared), k));
  return MakeHits(prepared, neighbors);
}

Result<std::vector<SemanticIndex::Hit>> SemanticIndex::RangeQuery(
    const Triple& query, double radius) const {
  const PreparedTriple prepared = distance_.Prepare(query);
  SEMTREE_ASSIGN_OR_RETURN(std::vector<Neighbor> neighbors,
                           tree_->RangeSearch(Embed(prepared), radius));
  return MakeHits(prepared, neighbors);
}

}  // namespace semtree
