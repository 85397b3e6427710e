// Copyright 2026 The SemTree Authors
//
// SemanticIndex: the end-to-end pipeline of the paper (§III-A):
//
//   triples --(semantic distance, Eq. 1)--> FastMap --> vector space
//          --> distributed SemTree --> k-nearest / range queries
//
// This is the type a downstream application instantiates: feed it a
// vocabulary and a triple corpus, then ask semantic similarity queries
// by example.

#ifndef SEMTREE_SEMTREE_SEMANTIC_INDEX_H_
#define SEMTREE_SEMTREE_SEMANTIC_INDEX_H_

#include <memory>
#include <vector>

#include "distance/triple_distance.h"
#include "fastmap/fastmap.h"
#include "ontology/taxonomy.h"
#include "rdf/triple.h"
#include "semtree/semtree.h"

namespace semtree {

struct SemanticIndexOptions {
  /// FastMap embedding configuration (dimensionality etc.).
  FastMapOptions fastmap;

  /// Weights (alpha, beta, gamma) of Eq. (1).
  TripleDistanceWeights weights;

  /// Element-level distance configuration.
  ElementDistanceOptions element;

  /// Leaf bucket capacity of the SemTree.
  size_t bucket_size = 32;

  /// Partitions (compute nodes) of the distributed tree.
  size_t max_partitions = 1;

  /// Points a partition may store before build-partition triggers.
  /// Defaults to "never" for single-partition trees.
  size_t partition_capacity = SIZE_MAX;

  /// Simulated one-way network latency between partitions.
  std::chrono::microseconds network_latency{0};

  /// Concurrent client threads used while bulk-inserting the corpus.
  size_t build_client_threads = 1;

  /// Load the tree with the distributed balanced bulk load instead of
  /// point-wise insertion (faster; the paper motivates KD-trees by
  /// their bulk-loading efficiency).
  bool bulk_load = false;

  /// Split policy of the balanced bulk load (core/split.h): median or
  /// clustering-guided centroid cuts. Only consulted when `bulk_load`
  /// is set.
  SplitPolicy split_policy = SplitPolicy::kMedian;

  /// Worker threads for FastMap training (FastMap::Train) and for each
  /// partition's local balanced build (SemTreeOptions::build_threads):
  /// 1 = serial, 0 = one per hardware thread (the default). Every value
  /// builds the same bytes: embedding, tree and snapshot.
  size_t build_threads = 0;

  /// Order hits by true semantic distance instead of embedded distance.
  bool rerank_by_semantic_distance = false;
};

/// The paper's full semantic indexing framework.
class SemanticIndex {
 public:
  /// One query answer.
  struct Hit {
    TripleId id = 0;
    double embedded_distance = 0.0;  ///< Euclidean, in FastMap space.
    double semantic_distance = 0.0;  ///< Eq. (1), recomputed exactly.
  };

  /// Embeds and indexes `corpus`. The taxonomy must outlive the index.
  static Result<std::unique_ptr<SemanticIndex>> Build(
      const Taxonomy* taxonomy, std::vector<Triple> corpus,
      SemanticIndexOptions options = {});

  /// Rebuilds an index from a previously trained embedding (used by
  /// LoadIndex in semtree/index_io.h): skips FastMap training and goes
  /// straight to standing up the tree over the stored coordinates.
  static Result<std::unique_ptr<SemanticIndex>> Restore(
      const Taxonomy* taxonomy, std::vector<Triple> corpus,
      FastMap fastmap, SemanticIndexOptions options = {});

  /// Like Restore, but installs an already-reassembled SemTree (the v2
  /// snapshot load path, persist/index_snapshot.h): neither FastMap
  /// training nor tree construction runs.
  static Result<std::unique_ptr<SemanticIndex>> RestoreWithTree(
      const Taxonomy* taxonomy, std::vector<Triple> corpus,
      FastMap fastmap, std::unique_ptr<SemTree> tree,
      SemanticIndexOptions options = {});

  /// K nearest triples to `query` under the embedded distance
  /// (query-by-example, §II).
  Result<std::vector<Hit>> KnnQuery(const Triple& query, size_t k) const;

  /// Triples within `radius` of `query` in the embedded space.
  Result<std::vector<Hit>> RangeQuery(const Triple& query,
                                      double radius) const;

  /// The indexed triple for a hit id.
  const Triple& triple(TripleId id) const { return corpus_[id]; }
  size_t size() const { return corpus_.size(); }

  /// Exact Eq. (1) distance between two triples under this index's
  /// configuration.
  double SemanticDistance(const Triple& a, const Triple& b) const {
    return distance_(a, b);
  }

  /// Projects a triple into the FastMap space of this index. Resolves
  /// the query's terms once and compares it with the compiled pivots
  /// only (DESIGN.md §13); safe to call from many threads at once.
  std::vector<double> Embed(const Triple& query) const;

  /// The configured Eq. (1) distance (element-level access included).
  const TripleDistance& distance() const { return distance_; }

  const FastMap& fastmap() const { return *fastmap_; }
  const SemTree& tree() const { return *tree_; }
  SemTree& tree() { return *tree_; }
  const Taxonomy& taxonomy() const {
    return distance_.element_distance().taxonomy();
  }
  const SemanticIndexOptions& options() const { return options_; }

 private:
  SemanticIndex(SemanticIndexOptions options, TripleDistance distance,
                std::vector<Triple> corpus)
      : options_(std::move(options)),
        distance_(std::move(distance)),
        corpus_(std::move(corpus)) {}

  /// Embed of a prepared query.
  std::vector<double> Embed(const PreparedTriple& query) const;

  std::vector<Hit> MakeHits(const PreparedTriple& query,
                            const std::vector<Neighbor>& neighbors) const;

  /// Installs the trained embedding and compiles its pivot triples
  /// (shared by Build, Restore and RestoreWithTree).
  void SetFastMap(FastMap fastmap);

  /// Stands up the SemTree over fastmap_'s coordinates (shared tail of
  /// Build and Restore).
  Status BuildTree();

  SemanticIndexOptions options_;
  TripleDistance distance_;
  std::vector<Triple> corpus_;
  std::unique_ptr<FastMap> fastmap_;
  /// The pivots of every effective axis in FastMap::Project's order
  /// (a, then b, axis by axis), compiled. Point into corpus_, which
  /// never changes.
  std::vector<CompiledTriple> pivots_;
  std::unique_ptr<SemTree> tree_;
};

}  // namespace semtree

#endif  // SEMTREE_SEMTREE_SEMANTIC_INDEX_H_
