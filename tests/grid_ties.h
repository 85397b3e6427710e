// Copyright 2026 The SemTree Authors
//
// Grid data for the k-th-distance tie tests: a few dozen points on an
// integer grid with ids shuffled against insertion order, and queries
// on the half-integer grid. Distances tie all the time, so an index
// that keeps a different one of the points tied at the k-th distance
// than the (distance, id) order keeps disagrees with the linear scan.

#ifndef SEMTREE_TESTS_GRID_TIES_H_
#define SEMTREE_TESTS_GRID_TIES_H_

#include <utility>
#include <vector>

#include "common/random.h"
#include "core/point.h"

namespace semtree {

/// 20–49 points in {-1, ..., 3}^dims, dims = 2 or 3 by the seed's
/// parity; the ids are a random permutation of 0..n-1.
struct GridTies {
  size_t dims = 0;
  std::vector<KdPoint> points;
};

inline GridTies MakeGridTies(uint64_t seed) {
  Rng rng(seed);
  GridTies grid;
  grid.dims = 2 + seed % 2;
  const size_t n = 20 + rng.Uniform(30);
  std::vector<PointId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = PointId(i);
  for (size_t i = n; i-- > 1;) std::swap(ids[i], ids[rng.Uniform(i + 1)]);
  grid.points.resize(n);
  for (size_t i = 0; i < n; ++i) {
    grid.points[i].id = ids[i];
    grid.points[i].coords.resize(grid.dims);
    for (double& x : grid.points[i].coords) x = double(rng.Uniform(5)) - 1.0;
  }
  return grid;
}

/// A query in {-2, -1.5, ..., 4}^dims.
inline std::vector<double> GridQuery(size_t dims, Rng* rng) {
  std::vector<double> query(dims);
  for (double& x : query) x = 0.5 * double(rng->Uniform(13)) - 2.0;
  return query;
}

}  // namespace semtree

#endif  // SEMTREE_TESTS_GRID_TIES_H_
