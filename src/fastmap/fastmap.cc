// Copyright 2026 The SemTree Authors

#include "fastmap/fastmap.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/bulk_build.h"
#include "core/distance.h"
#include "core/kernels.h"

namespace semtree {

namespace {
constexpr double kDegenerateEps = 1e-12;

// Chunks per thread of a parallel residual row: a few per thread, so a
// chunk of slow oracle calls does not leave the others idle.
constexpr size_t kRowChunksPerThread = 4;

// Squared residual distance at `axis` between training objects `i`
// and `j`: the oracle's d(i, j)² minus the coordinates already fixed
// on axes 0..axis-1.
double ResidualSquared(const IndexDistanceFn& distance, const FastMap& fm,
                       size_t axis, size_t i, size_t j) {
  if (i == j) return 0.0;
  double d = distance(i, j);
  double d2 = d * d;
  const double* xi = fm.CoordsRow(i);
  const double* xj = fm.CoordsRow(j);
  for (size_t l = 0; l < axis; ++l) {
    double diff = xi[l] - xj[l];
    d2 -= diff * diff;
  }
  // Triangle-inequality violations in the original distance can push
  // the residual negative; clamp, as Faloutsos & Lin prescribe.
  return std::max(0.0, d2);
}

// The residual row r²(object, ·) of one axis and its first argmax.
struct PivotRow {
  size_t object = SIZE_MAX;  // SIZE_MAX: the slot is empty.
  std::vector<double> r2;
  size_t farthest = 0;
  double best = -1.0;
};

// Computes `row` for `object` at `axis`: the oracle calls split into
// contiguous chunks on `pool` (null = serial), then one serial scan
// for the argmax, so ties go to the smallest index whatever the
// chunking.
void FillRow(const IndexDistanceFn& distance, const FastMap& fm,
             size_t axis, size_t object, ThreadPool* pool, PivotRow* row) {
  const size_t n = fm.size();
  row->object = object;
  row->r2.resize(n);
  double* r2 = row->r2.data();
  auto fill = [&distance, &fm, axis, object, r2](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      r2[i] = ResidualSquared(distance, fm, axis, object, i);
    }
  };
  if (pool == nullptr) {
    fill(0, n);
  } else {
    // The caller is one of the threads: TaskGroup::Wait runs queued
    // chunks on it.
    const size_t chunks = (pool->num_threads() + 1) * kRowChunksPerThread;
    TaskGroup group(pool);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t lo = n * c / chunks;
      const size_t hi = n * (c + 1) / chunks;
      group.Run([&fill, lo, hi]() { fill(lo, hi); });
    }
    group.Wait();
  }
  row->farthest = object;
  row->best = -1.0;
  for (size_t i = 0; i < n; ++i) {
    if (r2[i] > row->best) {
      row->best = r2[i];
      row->farthest = i;
    }
  }
}
}  // namespace

Result<FastMap> FastMap::Train(size_t n, const IndexDistanceFn& distance,
                               const FastMapOptions& options,
                               size_t threads) {
  if (n == 0) return Status::InvalidArgument("cannot embed zero objects");
  if (options.dimensions == 0) {
    return Status::InvalidArgument("dimensions must be positive");
  }
  if (!distance) {
    return Status::InvalidArgument("distance oracle must be callable");
  }
  FastMap fm(n, options.dimensions);
  Rng rng(options.seed);
  threads = ResolveBuildThreads(threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && n >= kParallelCutoff) {
    pool = std::make_unique<ThreadPool>(threads - 1);
  }

  // The two most recently used rows of the current axis. The pivot
  // walk revisits an object only in a closing two-cycle, and the
  // projection needs the last two rows, so no row is computed twice
  // (DESIGN.md §13). A miss refills the slot not used last.
  PivotRow slots[2];
  size_t recent = 0;
  auto row_of = [&](size_t axis, size_t object) -> const PivotRow& {
    if (slots[recent].object != object) {
      recent = 1 - recent;
      if (slots[recent].object != object) {
        FillRow(distance, fm, axis, object, pool.get(), &slots[recent]);
      }
    }
    return slots[recent];
  };

  for (size_t axis = 0; axis < options.dimensions; ++axis) {
    // Residuals subtract the coordinates of earlier axes: a new axis
    // starts with empty slots.
    slots[0].object = slots[1].object = SIZE_MAX;
    // Farthest-pair heuristic on the residual distance of this axis.
    size_t b = rng.Uniform(n);
    size_t a = b;
    double dab2 = 0.0;
    for (size_t iter = 0; iter < std::max<size_t>(1, options.pivot_iterations);
         ++iter) {
      const PivotRow& row = row_of(axis, b);
      a = b;
      b = row.farthest;
      dab2 = row.best;
      if (dab2 <= kDegenerateEps) break;
    }
    if (dab2 <= kDegenerateEps) {
      // All objects coincide in the residual space: the embedding is
      // complete; remaining axes stay zero.
      break;
    }
    double dab = std::sqrt(dab2);
    // a's row is the most recent, so fetching b never evicts it.
    const PivotRow& ra = row_of(axis, a);
    const PivotRow& rb = row_of(axis, b);
    for (size_t i = 0; i < n; ++i) {
      fm.At(i, axis) = (ra.r2[i] + dab2 - rb.r2[i]) / (2.0 * dab);
    }
    fm.pivots_.emplace_back(a, b);
    fm.pivot_distances_.push_back(dab);
    fm.effective_dimensions_ = axis + 1;
  }
  return fm;
}

Result<FastMap> FastMap::FromParts(
    size_t n, size_t dimensions, std::vector<double> flat_coordinates,
    std::vector<std::pair<size_t, size_t>> pivots,
    std::vector<double> pivot_distances) {
  if (n == 0 || dimensions == 0) {
    return Status::InvalidArgument("n and dimensions must be positive");
  }
  if (flat_coordinates.size() != n * dimensions) {
    return Status::InvalidArgument("coordinate matrix has wrong size");
  }
  if (pivots.size() != pivot_distances.size() ||
      pivots.size() > dimensions) {
    return Status::InvalidArgument("pivot table has wrong size");
  }
  for (const auto& [a, b] : pivots) {
    if (a >= n || b >= n) {
      return Status::InvalidArgument("pivot index out of range");
    }
  }
  for (double d : pivot_distances) {
    if (!(d > 0.0)) {
      return Status::InvalidArgument(
          "pivot distances must be positive and finite");
    }
  }
  FastMap fm(n, dimensions);
  fm.coords_ = std::move(flat_coordinates);
  fm.pivots_ = std::move(pivots);
  fm.pivot_distances_ = std::move(pivot_distances);
  fm.effective_dimensions_ = fm.pivots_.size();
  return fm;
}

std::vector<double> FastMap::Coordinates(size_t i) const {
  std::vector<double> out(dimensions_);
  for (size_t axis = 0; axis < dimensions_; ++axis) {
    out[axis] = AtConst(i, axis);
  }
  return out;
}

std::vector<double> FastMap::Project(std::span<const double> to_pivots) const {
  if (to_pivots.size() != 2 * effective_dimensions_) {
    std::fprintf(stderr, "FastMap::Project: %zu pivot distances for %zu axes\n",
                 to_pivots.size(), effective_dimensions_);
    std::abort();
  }
  std::vector<double> q(dimensions_, 0.0);
  for (size_t axis = 0; axis < effective_dimensions_; ++axis) {
    auto [a, b] = pivots_[axis];
    double dab = pivot_distances_[axis];
    // Residual squared distance from the query to each pivot at this
    // axis, from the original distance minus the coordinates fixed on
    // previous axes.
    auto residual2 = [&](size_t pivot, double d) {
      double d2 = d * d;
      for (size_t l = 0; l < axis; ++l) {
        double diff = q[l] - AtConst(pivot, l);
        d2 -= diff * diff;
      }
      return std::max(0.0, d2);
    };
    double daq2 = residual2(a, to_pivots[2 * axis]);
    double dbq2 = residual2(b, to_pivots[2 * axis + 1]);
    q[axis] = (daq2 + dab * dab - dbq2) / (2.0 * dab);
  }
  return q;
}

PointBlock FastMap::ToPointBlock() const {
  PointBlock block(dimensions_);
  block.coords = coords_;
  block.ids.resize(n_);
  for (size_t i = 0; i < n_; ++i) {
    block.ids[i] = static_cast<PointId>(i);
  }
  return block;
}

double FastMap::EmbeddedDistance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  // The embedded space is Euclidean by construction (coordinates are
  // built from L2 residuals), so the embedded metric is pinned to kL2
  // regardless of any index-side Metric choice; route through the
  // kernel layer so there is exactly one hot implementation.
  if (a.size() != b.size()) {
    internal::FatalDimensionMismatch(a.size(), b.size());
  }
  return MetricDistance(Metric::kL2, a.data(), b.data(), a.size());
}

double FastMap::SampleStress(const IndexDistanceFn& distance,
                             size_t samples, uint64_t seed) const {
  if (n_ < 2 || samples == 0) return 0.0;
  Rng rng(seed);
  double sum_sq_err = 0.0;
  size_t counted = 0;
  for (size_t s = 0; s < samples; ++s) {
    size_t i = rng.Uniform(n_);
    size_t j = rng.Uniform(n_);
    if (i == j) continue;
    double original = distance(i, j);
    double embedded =
        MetricDistance(Metric::kL2, CoordsRow(i), CoordsRow(j),
                       dimensions_);
    double err = original - embedded;
    sum_sq_err += err * err;
    ++counted;
  }
  return counted == 0 ? 0.0 : std::sqrt(sum_sq_err / counted);
}

}  // namespace semtree
