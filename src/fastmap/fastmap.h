// Copyright 2026 The SemTree Authors
//
// FastMap (Faloutsos & Lin, SIGMOD 1995): embeds N objects, known only
// through a pairwise distance function, into a k-dimensional Euclidean
// space. SemTree uses it to map triples (with the semantic distance of
// Eq. (1)) into the vector space indexed by the distributed KD-tree
// (paper §III-A, feature (iii)).
//
// The implementation is generic: it works on object *indices* 0..N-1
// and a distance oracle, so any object type can be embedded.

#ifndef SEMTREE_FASTMAP_FASTMAP_H_
#define SEMTREE_FASTMAP_FASTMAP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/point.h"
#include "core/point_block.h"

namespace semtree {

/// Distance oracle over the training objects. FastMap::Train with more
/// than one thread calls it from several threads at once.
using IndexDistanceFn = std::function<double(size_t, size_t)>;

struct FastMapOptions {
  /// Target dimensionality k of the embedding.
  size_t dimensions = 8;

  /// Iterations of the farthest-pair pivot heuristic per axis
  /// (the original paper uses a small constant; 5 is standard).
  size_t pivot_iterations = 5;

  /// Seed for the heuristic's random starting object.
  uint64_t seed = 42;
};

/// A trained FastMap embedding.
///
/// Keeps, per axis, the pivot object indices and their residual
/// distance, which is exactly the state needed to project new (query)
/// objects into the same space later.
class FastMap {
 public:
  /// Trains an embedding of `n` objects. Fails on n == 0 or
  /// dimensions == 0. The oracle must be symmetric with zero
  /// self-distance; mild triangle violations are tolerated (residuals
  /// are clamped at zero, as in the original algorithm).
  ///
  /// Cost: per axis, (distinct pivot rows) x (n - 1) oracle calls. A
  /// row is computed once for each distinct object of the farthest-pair
  /// walk, and once more for the final pivot b if the walk did not
  /// visit it; the projection reuses both pivots' rows. That is at most
  /// max(1, pivot_iterations) + 1 rows, and fewer when the walk ends in
  /// a two-cycle (DESIGN.md §13).
  ///
  /// `threads`: 1 = serial, 0 = one per hardware thread, n = exactly n.
  /// Above one thread, and for n >= kParallelCutoff, each row's calls
  /// are split across a pool, so the oracle must then be safe to call
  /// from several threads at once. Every value gives bit-identical
  /// coordinates, pivots and pivot distances.
  static Result<FastMap> Train(size_t n, const IndexDistanceFn& distance,
                               const FastMapOptions& options,
                               size_t threads = 1);

  /// Number of embedded objects.
  size_t size() const { return n_; }

  /// Configured dimensionality (coordinates always have this size).
  size_t dimensions() const { return dimensions_; }

  /// Axes that received a non-degenerate pivot pair. Axes beyond this
  /// hold zero for every object.
  size_t effective_dimensions() const { return effective_dimensions_; }

  /// Coordinates of training object `i`.
  std::vector<double> Coordinates(size_t i) const;

  /// Pointer to the row of training object `i` in the flat arena
  /// (contiguous, length dimensions()).
  const double* CoordsRow(size_t i) const {
    return coords_.data() + i * dimensions_;
  }

  /// Non-owning view of training object `i` (id = training index).
  PointView View(size_t i) const {
    return PointView{CoordsRow(i), dimensions_, static_cast<PointId>(i)};
  }

  /// All coordinates, row-major [n x dimensions].
  const std::vector<double>& flat_coordinates() const { return coords_; }

  /// The whole embedding as one contiguous block (ids = training
  /// indices) — the zero-reshaping input to SemTree bulk loading.
  PointBlock ToPointBlock() const;

  /// Pivot object indices (a, b) per effective axis.
  const std::vector<std::pair<size_t, size_t>>& pivots() const {
    return pivots_;
  }

  /// Residual pivot distances d(a,b) per effective axis.
  const std::vector<double>& pivot_distances() const {
    return pivot_distances_;
  }

  /// Reassembles a previously trained embedding from its serialized
  /// parts (see semtree/index_io.h). Validates dimensions and pivot
  /// consistency.
  static Result<FastMap> FromParts(
      size_t n, size_t dimensions, std::vector<double> flat_coordinates,
      std::vector<std::pair<size_t, size_t>> pivots,
      std::vector<double> pivot_distances);

  /// Projects an out-of-sample object into the embedding from its
  /// *original-space* distances to the pivots, in axis order: entry
  /// 2·axis is the distance to pivots()[axis].first and 2·axis + 1 to
  /// pivots()[axis].second. Aborts unless there are exactly
  /// 2 · effective_dimensions() of them.
  std::vector<double> Project(std::span<const double> to_pivots) const;

  /// Euclidean distance between two embedded coordinate vectors.
  static double EmbeddedDistance(const std::vector<double>& a,
                                 const std::vector<double>& b);

  /// Root-mean-square error between original and embedded distances on
  /// a uniform sample of pairs; the standard FastMap quality metric.
  double SampleStress(const IndexDistanceFn& distance, size_t samples,
                      uint64_t seed = 42) const;

 private:
  FastMap(size_t n, size_t dimensions)
      : n_(n), dimensions_(dimensions), coords_(n * dimensions, 0.0) {}

  double& At(size_t i, size_t axis) {
    return coords_[i * dimensions_ + axis];
  }
  double AtConst(size_t i, size_t axis) const {
    return coords_[i * dimensions_ + axis];
  }

  size_t n_;
  size_t dimensions_;
  size_t effective_dimensions_ = 0;
  std::vector<double> coords_;
  std::vector<std::pair<size_t, size_t>> pivots_;
  std::vector<double> pivot_distances_;  // Residual d(a,b) per axis.
};

}  // namespace semtree

#endif  // SEMTREE_FASTMAP_FASTMAP_H_
