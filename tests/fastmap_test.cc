// Copyright 2026 The SemTree Authors
//
// Tests for src/fastmap. Strategy: (a) exact recovery properties on
// genuinely Euclidean inputs, (b) behavioural properties (pivot spread,
// query projection consistency) on the semantic triple distance, (c)
// training cost and bit-identity across thread counts.

#include <atomic>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "distance/triple_distance.h"
#include "fastmap/fastmap.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"

namespace semtree {
namespace {

// Distance oracle over a synthetic Euclidean point set.
class EuclideanOracle {
 public:
  EuclideanOracle(size_t n, size_t dims, uint64_t seed) {
    Rng rng(seed);
    points_.resize(n);
    for (auto& p : points_) {
      p.resize(dims);
      for (double& c : p) c = rng.UniformDouble(-10.0, 10.0);
    }
  }

  double operator()(size_t i, size_t j) const {
    double sum = 0.0;
    for (size_t d = 0; d < points_[i].size(); ++d) {
      double diff = points_[i][d] - points_[j][d];
      sum += diff * diff;
    }
    return std::sqrt(sum);
  }

  size_t size() const { return points_.size(); }

 private:
  std::vector<std::vector<double>> points_;
};

// FNV-1a, as embedding_golden_test computes it.
uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(FastMapTest, RejectsBadArguments) {
  IndexDistanceFn zero = [](size_t, size_t) { return 0.0; };
  EXPECT_FALSE(FastMap::Train(0, zero, {}).ok());
  FastMapOptions no_dims;
  no_dims.dimensions = 0;
  EXPECT_FALSE(FastMap::Train(3, zero, no_dims).ok());
  EXPECT_FALSE(FastMap::Train(3, nullptr, {}).ok());
}

TEST(FastMapTest, SinglePointEmbedsAtOrigin) {
  IndexDistanceFn zero = [](size_t, size_t) { return 0.0; };
  auto fm = FastMap::Train(1, zero, {});
  ASSERT_TRUE(fm.ok());
  EXPECT_EQ(fm->size(), 1u);
  EXPECT_EQ(fm->effective_dimensions(), 0u);
  for (double c : fm->Coordinates(0)) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(FastMapTest, IdenticalPointsAreDegenerate) {
  IndexDistanceFn zero = [](size_t, size_t) { return 0.0; };
  auto fm = FastMap::Train(10, zero, {});
  ASSERT_TRUE(fm.ok());
  EXPECT_EQ(fm->effective_dimensions(), 0u);
  EXPECT_DOUBLE_EQ(
      FastMap::EmbeddedDistance(fm->Coordinates(3), fm->Coordinates(7)),
      0.0);
}

TEST(FastMapTest, TwoPointsPreserveTheirDistance) {
  IndexDistanceFn d = [](size_t i, size_t j) {
    return i == j ? 0.0 : 5.0;
  };
  FastMapOptions opts;
  opts.dimensions = 3;
  auto fm = FastMap::Train(2, d, opts);
  ASSERT_TRUE(fm.ok());
  EXPECT_NEAR(
      FastMap::EmbeddedDistance(fm->Coordinates(0), fm->Coordinates(1)),
      5.0, 1e-9);
}

TEST(FastMapTest, RecoversEuclideanDistancesExactly) {
  // Points drawn from R^4, embedded with k=4: FastMap recovers the
  // pairwise distances (it is exact when k matches the intrinsic
  // dimensionality of a Euclidean input).
  const size_t kDims = 4;
  EuclideanOracle oracle(60, kDims, 7);
  FastMapOptions opts;
  opts.dimensions = kDims;
  auto fm = FastMap::Train(oracle.size(),
                           [&](size_t i, size_t j) { return oracle(i, j); },
                           opts);
  ASSERT_TRUE(fm.ok());
  double worst = 0.0;
  for (size_t i = 0; i < oracle.size(); ++i) {
    for (size_t j = i + 1; j < oracle.size(); ++j) {
      double emb = FastMap::EmbeddedDistance(fm->Coordinates(i),
                                             fm->Coordinates(j));
      worst = std::max(worst, std::fabs(emb - oracle(i, j)));
    }
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(FastMapTest, EmbeddedDistanceNeverExceedsOriginalOnEuclidean) {
  // With fewer axes than the intrinsic dimension the embedding is a
  // projection: distances can only shrink.
  EuclideanOracle oracle(80, 6, 11);
  FastMapOptions opts;
  opts.dimensions = 3;
  auto fm = FastMap::Train(oracle.size(),
                           [&](size_t i, size_t j) { return oracle(i, j); },
                           opts);
  ASSERT_TRUE(fm.ok());
  for (size_t i = 0; i < oracle.size(); ++i) {
    for (size_t j = i + 1; j < oracle.size(); j += 3) {
      double emb = FastMap::EmbeddedDistance(fm->Coordinates(i),
                                             fm->Coordinates(j));
      EXPECT_LE(emb, oracle(i, j) + 1e-6);
    }
  }
}

TEST(FastMapTest, MoreDimensionsReduceStress) {
  EuclideanOracle oracle(120, 8, 13);
  IndexDistanceFn d = [&](size_t i, size_t j) { return oracle(i, j); };
  double prev = 1e18;
  for (size_t k : {1u, 2u, 4u, 8u}) {
    FastMapOptions opts;
    opts.dimensions = k;
    auto fm = FastMap::Train(oracle.size(), d, opts);
    ASSERT_TRUE(fm.ok());
    double stress = fm->SampleStress(d, 4000);
    EXPECT_LE(stress, prev + 1e-9) << "k=" << k;
    prev = stress;
  }
  EXPECT_LT(prev, 1e-6);  // k=8 matches the intrinsic dimension.
}

TEST(FastMapTest, ProjectMapsTrainingPointsOntoThemselves) {
  EuclideanOracle oracle(40, 4, 17);
  IndexDistanceFn d = [&](size_t i, size_t j) { return oracle(i, j); };
  FastMapOptions opts;
  opts.dimensions = 4;
  auto fm = FastMap::Train(oracle.size(), d, opts);
  ASSERT_TRUE(fm.ok());
  // Re-projecting a training object through the query path must land on
  // its training coordinates. The hash of the projections was captured
  // when Project took a callback instead of the distances.
  uint64_t hash = 14695981039346656037ull;
  for (size_t q = 0; q < oracle.size(); q += 5) {
    std::vector<double> to_pivots;
    for (const auto& [a, b] : fm->pivots()) {
      to_pivots.push_back(oracle(q, a));
      to_pivots.push_back(oracle(q, b));
    }
    std::vector<double> projected = fm->Project(to_pivots);
    std::vector<double> trained = fm->Coordinates(q);
    ASSERT_EQ(projected.size(), trained.size());
    for (size_t axis = 0; axis < projected.size(); ++axis) {
      EXPECT_NEAR(projected[axis], trained[axis], 1e-6) << "axis " << axis;
    }
    hash = Fnv1a(projected.data(), projected.size() * sizeof(double), hash);
  }
  EXPECT_EQ(hash, 2229756946358743037ull);
}

TEST(FastMapTest, DeterministicForSameSeed) {
  EuclideanOracle oracle(50, 5, 19);
  IndexDistanceFn d = [&](size_t i, size_t j) { return oracle(i, j); };
  FastMapOptions opts;
  opts.dimensions = 4;
  opts.seed = 99;
  auto a = FastMap::Train(oracle.size(), d, opts);
  auto b = FastMap::Train(oracle.size(), d, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->flat_coordinates(), b->flat_coordinates());
  EXPECT_EQ(a->pivots(), b->pivots());
}

TEST(FastMapTest, PivotsAreDistinctPerAxis) {
  EuclideanOracle oracle(50, 5, 23);
  FastMapOptions opts;
  opts.dimensions = 5;
  auto fm = FastMap::Train(oracle.size(),
                           [&](size_t i, size_t j) { return oracle(i, j); },
                           opts);
  ASSERT_TRUE(fm.ok());
  for (auto [a, b] : fm->pivots()) EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// Training cost and thread counts. The hashes were captured before
// training kept its pivot rows or ran on more than one thread.

// Over coordinates, pivot pairs and pivot distances.
uint64_t EmbeddingHash(const FastMap& fm) {
  const std::vector<double>& coords = fm.flat_coordinates();
  uint64_t h = Fnv1a(coords.data(), coords.size() * sizeof(double),
                     14695981039346656037ull);
  for (const auto& [a, b] : fm.pivots()) {
    const uint64_t pair[2] = {a, b};
    h = Fnv1a(pair, sizeof(pair), h);
  }
  const std::vector<double>& dists = fm.pivot_distances();
  return Fnv1a(dists.data(), dists.size() * sizeof(double), h);
}

void ExpectSameBytes(const FastMap& want, const FastMap& got) {
  ASSERT_EQ(want.flat_coordinates().size(), got.flat_coordinates().size());
  EXPECT_EQ(std::memcmp(want.flat_coordinates().data(),
                        got.flat_coordinates().data(),
                        want.flat_coordinates().size() * sizeof(double)),
            0);
  EXPECT_EQ(want.pivots(), got.pivots());
  ASSERT_EQ(want.pivot_distances().size(), got.pivot_distances().size());
  EXPECT_EQ(std::memcmp(want.pivot_distances().data(),
                        got.pivot_distances().data(),
                        want.pivot_distances().size() * sizeof(double)),
            0);
}

// Trains at each thread count (5,000 objects: above kParallelCutoff,
// and uneven chunks at 3 threads) and holds every result to the serial
// bytes and to `golden`.
void ExpectBitIdenticalAcrossThreads(size_t n, const IndexDistanceFn& d,
                                     const FastMapOptions& opts,
                                     uint64_t golden) {
  auto serial = FastMap::Train(n, d, opts, 1);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(EmbeddingHash(*serial), golden);
  for (size_t threads : {2u, 3u, 8u, 0u}) {
    SCOPED_TRACE(threads);
    auto parallel = FastMap::Train(n, d, opts, threads);
    ASSERT_TRUE(parallel.ok());
    ExpectSameBytes(*serial, *parallel);
  }
}

TEST(FastMapThreadsTest, EuclideanIsBitIdenticalAcrossThreadCounts) {
  EuclideanOracle oracle(5000, 6, 37);
  FastMapOptions opts;
  opts.dimensions = 4;
  ExpectBitIdenticalAcrossThreads(
      oracle.size(), [&](size_t i, size_t j) { return oracle(i, j); }, opts,
      2360204708055965803ull);
}

TEST(FastMapThreadsTest, TriplesAreBitIdenticalAcrossThreadCounts) {
  Taxonomy vocab = RequirementsVocabulary();
  CorpusOptions copts;
  copts.num_documents = 120;
  copts.min_requirements_per_doc = 40;
  copts.max_requirements_per_doc = 60;
  copts.num_actors = 100;
  copts.seed = 17;
  RequirementsCorpusGenerator gen(&vocab, copts);
  auto triples = gen.GenerateTriples();
  ASSERT_TRUE(triples.ok());
  ASSERT_GE(triples->size(), 5000u);
  triples->resize(5000);
  auto distance = TripleDistance::Make(&vocab);
  ASSERT_TRUE(distance.ok());
  std::vector<PreparedTriple> prepared;
  for (const Triple& t : *triples) prepared.push_back(distance->Prepare(t));
  FastMapOptions opts;
  opts.dimensions = 8;
  opts.seed = 5;
  ExpectBitIdenticalAcrossThreads(
      prepared.size(),
      [&](size_t i, size_t j) { return (*distance)(prepared[i], prepared[j]); },
      opts, 13238847268395094972ull);
}

TEST(FastMapThreadsTest, TiesGoToTheSmallestIndex) {
  // Every residual of the first row ties, so the walk goes to index 0
  // (or 1 from 0) whatever the chunking.
  IndexDistanceFn d = [](size_t i, size_t j) { return i == j ? 0.0 : 1.0; };
  FastMapOptions opts;
  opts.dimensions = 3;
  ExpectBitIdenticalAcrossThreads(5000, d, opts, 12814665615878854116ull);
  auto fm = FastMap::Train(5000, d, opts, 4);
  ASSERT_TRUE(fm.ok());
  auto [a, b] = fm->pivots()[0];
  EXPECT_EQ(std::min(a, b), 0u);
  EXPECT_EQ(std::max(a, b), 1u);
}

TEST(FastMapThreadsTest, EachDistinctPivotRowIsComputedOnce) {
  // Points on a line, starting inside it: the walk visits the start,
  // then the two endpoints, and closes a two-cycle between them. So 3
  // distinct rows, where recomputing every row would make 5 + 2.
  const size_t n = 5000;
  FastMapOptions opts;
  opts.dimensions = 1;
  Rng rng(opts.seed);
  const size_t start = rng.Uniform(n);
  ASSERT_NE(start, 0u);
  ASSERT_NE(start, n - 1);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::atomic<size_t> calls{0};
    auto fm = FastMap::Train(
        n,
        [&calls](size_t i, size_t j) {
          calls.fetch_add(1, std::memory_order_relaxed);
          return std::fabs(static_cast<double>(i) - static_cast<double>(j));
        },
        opts, threads);
    ASSERT_TRUE(fm.ok());
    EXPECT_EQ(calls.load(), 3 * (n - 1));
    auto [a, b] = fm->pivots()[0];
    EXPECT_EQ(std::min(a, b), 0u);
    EXPECT_EQ(std::max(a, b), n - 1);
  }
}

TEST(FastMapThreadsTest, AsymmetricOracleGetsTheSameAnswer) {
  // d(i, j) is large only from residue class i mod 3 to the next, so
  // the walk visits the start, then objects 1, 2, 0 and 1 again: a
  // three-cycle that comes back to a row the two kept rows no longer
  // hold. That row, and the projection's b, are computed again, the
  // same way: 6 rows where recomputing every row makes 7, and the
  // same embedding.
  const size_t n = 4500;
  FastMapOptions opts;
  opts.dimensions = 1;
  Rng rng(opts.seed);
  ASSERT_GE(rng.Uniform(n), 3u);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::atomic<size_t> calls{0};
    auto fm = FastMap::Train(
        n,
        [&calls](size_t i, size_t j) {
          calls.fetch_add(1, std::memory_order_relaxed);
          if (i == j) return 0.0;
          return j % 3 == (i + 1) % 3 ? 2.0 : 1.0;
        },
        opts, threads);
    ASSERT_TRUE(fm.ok());
    EXPECT_EQ(calls.load(), 6 * (n - 1));
    EXPECT_EQ(EmbeddingHash(*fm), 15736059129400978383ull);
  }
}

// ---------------------------------------------------------------------
// On the semantic triple distance

class FastMapSemanticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = RequirementsVocabulary();
    RequirementsCorpusGenerator gen(&vocab_, {.num_documents = 20,
                                              .seed = 29});
    auto triples = gen.GenerateTriples();
    ASSERT_TRUE(triples.ok());
    triples_ = std::move(*triples);
    auto dist = TripleDistance::Make(&vocab_);
    ASSERT_TRUE(dist.ok());
    distance_ = std::make_unique<TripleDistance>(std::move(*dist));
  }

  Taxonomy vocab_;
  std::vector<Triple> triples_;
  std::unique_ptr<TripleDistance> distance_;
};

TEST_F(FastMapSemanticTest, EmbedsTriplesWithModerateStress) {
  IndexDistanceFn d = [&](size_t i, size_t j) {
    return (*distance_)(triples_[i], triples_[j]);
  };
  FastMapOptions opts;
  opts.dimensions = 8;
  auto fm = FastMap::Train(triples_.size(), d, opts);
  ASSERT_TRUE(fm.ok());
  EXPECT_GT(fm->effective_dimensions(), 0u);
  // Distances live in [0,1]; the embedding should track them well below
  // the trivial error level.
  EXPECT_LT(fm->SampleStress(d, 5000), 0.25);
}

TEST_F(FastMapSemanticTest, SimilarTriplesEmbedCloserThanDissimilar) {
  IndexDistanceFn d = [&](size_t i, size_t j) {
    return (*distance_)(triples_[i], triples_[j]);
  };
  FastMapOptions opts;
  opts.dimensions = 8;
  auto fm = FastMap::Train(triples_.size(), d, opts);
  ASSERT_TRUE(fm.ok());
  // Rank correlation on a sample: for random triples (a, b, c) with
  // d(a,b) much smaller than d(a,c), the embedded order should agree
  // most of the time.
  Rng rng(31);
  size_t agree = 0, total = 0;
  for (int s = 0; s < 3000; ++s) {
    size_t a = rng.Uniform(triples_.size());
    size_t b = rng.Uniform(triples_.size());
    size_t c = rng.Uniform(triples_.size());
    double dab = d(a, b), dac = d(a, c);
    if (std::fabs(dab - dac) < 0.2) continue;  // Only clear-cut cases.
    double eab = FastMap::EmbeddedDistance(fm->Coordinates(a),
                                           fm->Coordinates(b));
    double eac = FastMap::EmbeddedDistance(fm->Coordinates(a),
                                           fm->Coordinates(c));
    agree += ((dab < dac) == (eab < eac));
    ++total;
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(agree) / total, 0.85);
}

}  // namespace
}  // namespace semtree
