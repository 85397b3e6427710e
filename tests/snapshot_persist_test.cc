// Copyright 2026 The SemTree Authors
//
// Tests for the v2 binary snapshot subsystem (src/persist/): wire
// primitives, container framing and checksums, structure-preserving
// round-trips for all four SpatialIndex backends, the SemanticIndex
// snapshot with its SemTree partition fan-out, QueryEngine warm start,
// the persistence-layer bugfixes (locale parsing, atomic writes,
// error-line diagnostics) and the result-cache fixes that ride along.

#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>

#include "common/random.h"
#include "common/string_util.h"
#include "core/backends.h"
#include "kdtree/kdtree.h"
#include "kdtree/linear_scan.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"
#include "persist/index_snapshot.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "semtree/index_io.h"
#include "semtree/partition.h"

namespace semtree {
namespace {

std::vector<KdPoint> MakePoints(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KdPoint p;
    p.id = i;
    p.coords.reserve(dims);
    for (size_t d = 0; d < dims; ++d) {
      p.coords.push_back(rng.UniformDouble(-10.0, 10.0));
    }
    points.push_back(std::move(p));
  }
  return points;
}

std::vector<double> MakeQuery(size_t dims, Rng* rng) {
  std::vector<double> q;
  q.reserve(dims);
  for (size_t d = 0; d < dims; ++d) {
    q.push_back(rng->UniformDouble(-10.0, 10.0));
  }
  return q;
}

constexpr size_t kDims = 5;

// Builds a backend with insertion churn; KdTree and LinearScan also
// get removals + re-inserts so the arena free list is exercised.
std::unique_ptr<SpatialIndex> BuildBackend(BackendKind kind) {
  auto index = MakeSpatialIndex(kind, kDims, {.bucket_size = 8});
  std::vector<KdPoint> points = MakePoints(400, kDims, /*seed=*/7);
  for (const KdPoint& p : points) {
    EXPECT_TRUE(index->Insert(p.coords, p.id).ok());
  }
  if (kind == BackendKind::kKdTree || kind == BackendKind::kLinearScan) {
    for (size_t i = 0; i < 40; ++i) {
      EXPECT_TRUE(index->Remove(points[i * 7].coords, points[i * 7].id).ok());
    }
    for (const KdPoint& p : MakePoints(25, kDims, /*seed=*/17)) {
      EXPECT_TRUE(index->Insert(p.coords, p.id + 10000).ok());
    }
  }
  return index;
}

const BackendKind kAllBackends[] = {
    BackendKind::kKdTree,
    BackendKind::kLinearScan,
    BackendKind::kVpTree,
    BackendKind::kMTree,
};

// -------------------------------------------------------------------
// Wire primitives

TEST(WireTest, PrimitivesRoundTrip) {
  persist::ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-42);
  w.PutDouble(-0.0);
  w.PutDouble(1.0 / 3.0);
  w.PutString("hello\0world");
  w.PutU32Array({1, 2, 3});

  persist::ByteReader r(w.bytes());
  EXPECT_EQ(*r.U8(), 0xAB);
  EXPECT_EQ(*r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.I32(), -42);
  EXPECT_EQ(*r.U64(), uint64_t(1) << 63);  // -0.0 bit pattern, exact.
  EXPECT_EQ(*r.Double(), 1.0 / 3.0);
  EXPECT_EQ(*r.String(), std::string("hello"));  // string_view stops at \0.
  EXPECT_EQ(*r.U32Array(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedReadsAreCorruption) {
  persist::ByteWriter w;
  w.PutU32(7);
  persist::ByteReader r(w.bytes());
  EXPECT_TRUE(r.U64().status().IsCorruption());
  // A huge length prefix must not allocate or read past the end.
  persist::ByteWriter w2;
  w2.PutU64(uint64_t(1) << 60);
  persist::ByteReader r2(w2.bytes());
  EXPECT_TRUE(r2.String().status().IsCorruption());
  persist::ByteReader r3(w2.bytes());
  EXPECT_TRUE(r3.DoubleArray().status().IsCorruption());
}

// -------------------------------------------------------------------
// Backend snapshots

TEST(SpatialSnapshotTest, RoundTripAllBackends) {
  Rng rng(23);
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendName(kind));
    auto original = BuildBackend(kind);
    auto bytes = persist::SerializeSpatialIndex(*original);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto loaded = persist::ParseSpatialIndex(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ((*loaded)->name(), original->name());
    EXPECT_EQ((*loaded)->size(), original->size());
    EXPECT_EQ((*loaded)->dimensions(), original->dimensions());
    EXPECT_EQ((*loaded)->epoch(), original->epoch());

    for (int q = 0; q < 20; ++q) {
      std::vector<double> query = MakeQuery(kDims, &rng);
      SearchStats sa, sb;
      EXPECT_EQ(original->KnnSearch(query, 9, &sa),
                (*loaded)->KnnSearch(query, 9, &sb));
      // Same work counters: the load preserved the structure, so the
      // search visits the very same nodes — it did not rebuild.
      EXPECT_EQ(sa.nodes_visited, sb.nodes_visited);
      EXPECT_EQ(sa.points_examined, sb.points_examined);
      EXPECT_EQ(original->RangeSearch(query, 2.5),
                (*loaded)->RangeSearch(query, 2.5));
    }

    // Byte-exact: re-serializing the loaded index reproduces the
    // snapshot bit for bit.
    auto bytes2 = persist::SerializeSpatialIndex(**loaded);
    ASSERT_TRUE(bytes2.ok());
    EXPECT_EQ(*bytes, *bytes2);
  }
}

TEST(SpatialSnapshotTest, SplitPolicyRoundTrips) {
  // The split policy rides in the tuning section (one byte after the
  // metric); a warm-restarted index keeps bulk-building the way it was
  // configured to. Old snapshots without the byte load as median —
  // covered by the defaulting path the metric tail already exercises.
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendName(kind));
    BackendOptions opts;
    opts.bucket_size = 8;
    opts.split_policy = SplitPolicy::kCentroid;
    auto original = MakeSpatialIndex(kind, kDims, opts);
    for (const KdPoint& p : MakePoints(60, kDims, /*seed=*/3)) {
      ASSERT_TRUE(original->Insert(p.coords, p.id).ok());
    }
    ASSERT_EQ(original->split_policy(), SplitPolicy::kCentroid);
    auto bytes = persist::SerializeSpatialIndex(*original);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto loaded = persist::ParseSpatialIndex(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->split_policy(), SplitPolicy::kCentroid);
  }
}

TEST(SpatialSnapshotTest, MutationAfterLoadMatchesOriginal) {
  // The free list and bucket layout survived, so post-restart inserts
  // land exactly where they would have without the restart.
  auto original = BuildBackend(BackendKind::kKdTree);
  auto bytes = persist::SerializeSpatialIndex(*original);
  ASSERT_TRUE(bytes.ok());
  auto loaded = persist::ParseSpatialIndex(*bytes);
  ASSERT_TRUE(loaded.ok());

  Rng rng(99);
  for (const KdPoint& p : MakePoints(50, kDims, /*seed=*/31)) {
    ASSERT_TRUE(original->Insert(p.coords, p.id + 50000).ok());
    ASSERT_TRUE((*loaded)->Insert(p.coords, p.id + 50000).ok());
  }
  EXPECT_EQ(original->epoch(), (*loaded)->epoch());
  for (int q = 0; q < 10; ++q) {
    std::vector<double> query = MakeQuery(kDims, &rng);
    EXPECT_EQ(original->KnnSearch(query, 5),
              (*loaded)->KnnSearch(query, 5));
  }
  auto a = persist::SerializeSpatialIndex(*original);
  auto b = persist::SerializeSpatialIndex(**loaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(SpatialSnapshotTest, FileRoundTripIsAtomic) {
  auto original = BuildBackend(BackendKind::kVpTree);
  std::string path = ::testing::TempDir() + "/vptree.snap";
  ASSERT_TRUE(persist::SaveSpatialIndex(*original, path).ok());
  // The temp file was renamed away, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto loaded = persist::LoadSpatialIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), original->size());
  EXPECT_TRUE(
      persist::LoadSpatialIndex("/nonexistent/x.snap").status().IsNotFound());
  std::remove(path.c_str());
}

TEST(SpatialSnapshotTest, TruncationRejected) {
  auto original = BuildBackend(BackendKind::kLinearScan);
  auto bytes = persist::SerializeSpatialIndex(*original);
  ASSERT_TRUE(bytes.ok());
  for (size_t keep :
       {size_t(0), size_t(4), size_t(19), bytes->size() / 2,
        bytes->size() - 1}) {
    SCOPED_TRACE(keep);
    auto r = persist::ParseSpatialIndex(bytes->substr(0, keep));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(SpatialSnapshotTest, BitFlipsRejectedByChecksum) {
  auto original = BuildBackend(BackendKind::kMTree);
  auto bytes = persist::SerializeSpatialIndex(*original);
  ASSERT_TRUE(bytes.ok());
  for (size_t pos : {size_t(2), bytes->size() / 3, bytes->size() / 2,
                     bytes->size() - 2}) {
    SCOPED_TRACE(pos);
    std::string flipped = *bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    auto r = persist::ParseSpatialIndex(std::move(flipped));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }
}

TEST(SpatialSnapshotTest, CyclicTopologyRejected) {
  // Hand-craft a checksum-valid KdTree snapshot whose single routing
  // node points at itself; the loader must reject it instead of
  // letting the first query recurse forever.
  persist::Snapshot snap;
  persist::ByteWriter* blob = snap.AddSection(/*kSecBackendBlob=*/0x11);
  blob->PutU64(2);     // dimensions
  blob->PutU64(8);     // bucket_size
  blob->PutU64(0);     // epoch
  blob->PutU64(2);     // store: dimensions
  blob->PutU64(1024);  // store: chunk capacity
  blob->PutU64Array({7});  // store: one id
  blob->PutU32Array({});   // store: no free slots
  blob->PutU64(2);         // store: row doubles
  blob->PutDouble(1.0);
  blob->PutDouble(2.0);
  blob->PutU64(1);  // one node...
  blob->PutU8(0);   // ...which is a routing node
  blob->PutU32(0);
  blob->PutDouble(0.5);
  blob->PutI32(0);  // left = itself
  blob->PutI32(0);  // right = itself
  blob->PutU32Array({});
  snap.AddSection(/*kSecBackendKind=*/0x10)->PutU32(0);  // kKdTree
  auto r = persist::ParseSpatialIndex(snap.Serialize());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

// -------------------------------------------------------------------
// Slot ownership: checksum-valid blobs whose slot lists disagree with
// their arena. Each case once loaded and then served wrong answers.

// A two-dimensional point store with one row per id and the given
// free list.
void PutStore(persist::ByteWriter* out, const std::vector<uint64_t>& ids,
              const std::vector<uint32_t>& free_slots) {
  out->PutU64(2);     // dimensions
  out->PutU64(1024);  // chunk capacity
  out->PutU64Array(ids);
  out->PutU32Array(free_slots);
  out->PutU64(ids.size() * 2);  // row doubles
  for (size_t i = 0; i < ids.size() * 2; ++i) out->PutDouble(0.5);
}

void PutKdNode(persist::ByteWriter* out, bool is_leaf, int32_t left,
               int32_t right, const std::vector<uint32_t>& bucket) {
  out->PutU8(is_leaf ? 1 : 0);
  out->PutU32(0);       // split_dim
  out->PutDouble(0.5);  // split_value
  out->PutI32(left);
  out->PutI32(right);
  out->PutU32Array(bucket);
}

TEST(SlotOwnershipTest, CorruptionMutationsRejected) {
  struct Case {
    const char* name;
    std::function<Status(persist::ByteReader*)> load;
    std::function<void(persist::ByteWriter*)> write;
  };
  const std::vector<Case> cases = {
      // Two later appends would both get slot 0.
      {"point store frees slot 0 twice",
       [](persist::ByteReader* in) {
         return persist::ReadPointStore(in).status();
       },
       [](persist::ByteWriter* out) { PutStore(out, {1, 2}, {0, 0}); }},
      // A range query would return the point twice.
      {"kd-tree leaves share a slot",
       [](persist::ByteReader* in) { return KdTree::LoadFrom(in).status(); },
       [](persist::ByteWriter* out) {
         out->PutU64(2);  // dimensions
         out->PutU64(8);  // bucket_size
         out->PutU64(0);  // epoch
         PutStore(out, {1}, {});
         out->PutU64(3);  // nodes
         PutKdNode(out, false, 1, 2, {});
         PutKdNode(out, true, -1, -1, {0});
         PutKdNode(out, true, -1, -1, {0});
       }},
      // A range query would return id 1 twice and lose id 2.
      {"linear-scan list names a slot twice",
       [](persist::ByteReader* in) {
         return LinearScanIndex::LoadFrom(in).status();
       },
       [](persist::ByteWriter* out) {
         out->PutU64(2);  // dimensions
         out->PutU64(0);  // epoch
         PutStore(out, {1, 2}, {});
         out->PutU32Array({0, 0});
       }},
      // The next insert would reuse slot 1 and rename the leaf's point.
      {"partition leaf names a free slot",
       [](persist::ByteReader* in) {
         Partition part(/*id=*/0, /*dimensions=*/2, /*bucket_size=*/8);
         return part.RestoreFrom(in, /*expected_partitions=*/1);
       },
       [](persist::ByteWriter* out) {
         out->PutU64(2);  // dimensions
         out->PutU64(8);  // bucket_size
         out->PutU64(2);  // points
         PutStore(out, {1, 2}, {1});
         out->PutU64(1);  // roots
         out->PutI32(0);
         out->PutU64(1);  // nodes
         out->PutU8(1);   // live leaf
         out->PutU32(0);
         out->PutDouble(0.0);
         for (int i = 0; i < 4; ++i) out->PutI32(-1);
         out->PutU32Array({0, 1});
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    persist::ByteWriter out;
    c.write(&out);
    const std::string bytes = out.Take();
    persist::ByteReader in(bytes);
    Status st = c.load(&in);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

// -------------------------------------------------------------------
// SemanticIndex snapshots (with SemTree partition fan-out)

class SemanticSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vocab_ = RequirementsVocabulary();
    RequirementsCorpusGenerator gen(&vocab_,
                                    {.num_documents = 12, .seed = 5});
    auto triples = gen.GenerateTriples();
    ASSERT_TRUE(triples.ok());
    corpus_ = std::move(*triples);

    SemanticIndexOptions opts;
    opts.fastmap.dimensions = 6;
    opts.weights = TripleDistanceWeights{0.5, 0.25, 0.25};
    opts.bucket_size = 16;
    // Several data partitions, so the snapshot really fans out one
    // blob per compute node and reassembles them on load.
    opts.max_partitions = 4;
    opts.partition_capacity = 48;
    auto index = SemanticIndex::Build(&vocab_, corpus_, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
    ASSERT_GT(index_->tree().PartitionCount(), 1u);
  }

  void ExpectQueriesIdentical(const SemanticIndex& a,
                              const SemanticIndex& b) {
    Rng rng(11);
    for (int q = 0; q < 10; ++q) {
      const Triple& query = corpus_[rng.Uniform(corpus_.size())];
      auto ha = a.KnnQuery(query, 7);
      auto hb = b.KnnQuery(query, 7);
      ASSERT_TRUE(ha.ok());
      ASSERT_TRUE(hb.ok());
      ASSERT_EQ(ha->size(), hb->size());
      for (size_t i = 0; i < ha->size(); ++i) {
        EXPECT_EQ((*ha)[i].id, (*hb)[i].id);
        EXPECT_EQ((*ha)[i].embedded_distance, (*hb)[i].embedded_distance);
      }
    }
  }

  Taxonomy vocab_;
  std::vector<Triple> corpus_;
  std::unique_ptr<SemanticIndex> index_;
};

TEST_F(SemanticSnapshotTest, SnapshotRoundTripPreservesPartitions) {
  auto bytes = persist::SerializeIndexSnapshot(*index_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  SemanticIndexOptions runtime;
  runtime.max_partitions = 4;
  auto bundle = persist::ParseIndexSnapshot(*bytes, runtime);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  // The partition layout was reassembled, not re-bulk-loaded.
  EXPECT_EQ(bundle->index->tree().PartitionCount(),
            index_->tree().PartitionCount());
  EXPECT_EQ(bundle->index->size(), index_->size());
  EXPECT_TRUE(bundle->index->tree().CheckInvariants().ok());
  ExpectQueriesIdentical(*index_, *bundle->index);
  for (TripleId id = 0; id < index_->size(); ++id) {
    EXPECT_EQ(bundle->index->triple(id), index_->triple(id));
  }
}

TEST_F(SemanticSnapshotTest, LoadIndexSniffsBothGenerations) {
  // v2 binary through the v1 entry point.
  std::string v2 = ::testing::TempDir() + "/index.snap";
  ASSERT_TRUE(persist::SaveIndexSnapshot(*index_, v2).ok());
  SemanticIndexOptions runtime;
  runtime.max_partitions = 4;
  auto from_v2 = LoadIndex(v2, runtime);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  ExpectQueriesIdentical(*index_, *from_v2->index);

  // v1 text keeps loading exactly as before.
  std::string v1 = ::testing::TempDir() + "/index.txt";
  ASSERT_TRUE(SaveIndex(*index_, v1).ok());
  EXPECT_FALSE(std::ifstream(v1 + ".tmp").good());  // Atomic rename.
  auto from_v1 = LoadIndex(v1, runtime);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ExpectQueriesIdentical(*index_, *from_v1->index);

  std::remove(v2.c_str());
  std::remove(v1.c_str());
}

TEST_F(SemanticSnapshotTest, TruncatedOrFlippedSnapshotRejected) {
  auto bytes = persist::SerializeIndexSnapshot(*index_);
  ASSERT_TRUE(bytes.ok());
  auto truncated =
      persist::ParseIndexSnapshot(bytes->substr(0, bytes->size() / 2));
  EXPECT_TRUE(truncated.status().IsCorruption());
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  auto r = persist::ParseIndexSnapshot(std::move(flipped));
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(SemanticSnapshotTest, TripleParseErrorReportsItsOwnLine) {
  std::string text = SerializeIndex(*index_);
  std::vector<std::string> lines = Split(text, '\n');
  size_t header = 0;
  while (header < lines.size() && !StartsWith(lines[header], "triples ")) {
    ++header;
  }
  ASSERT_LT(header, lines.size());
  // Corrupt the SECOND triple; 0-based index header+2, 1-based line
  // number header+3.
  const size_t corrupt_index = header + 2;
  const size_t expected_line = corrupt_index + 1;
  lines[corrupt_index] = "### not a triple ###";
  auto bundle = ParseIndex(Join(lines, "\n"));
  ASSERT_FALSE(bundle.ok());
  EXPECT_TRUE(bundle.status().IsCorruption());
  std::string needle =
      StringPrintf("line %zu", expected_line);
  EXPECT_NE(bundle.status().message().find(needle), std::string::npos)
      << bundle.status().message();
}

// -------------------------------------------------------------------
// Locale independence

class ScopedLocale {
 public:
  explicit ScopedLocale(const char* name) {
    const char* current = std::setlocale(LC_ALL, nullptr);
    previous_ = current != nullptr ? current : "C";
    active_ = std::setlocale(LC_ALL, name) != nullptr;
  }
  ~ScopedLocale() { std::setlocale(LC_ALL, previous_.c_str()); }
  bool active() const { return active_; }

 private:
  std::string previous_;
  bool active_;
};

TEST_F(SemanticSnapshotTest, RoundTripUnderCommaDecimalLocale) {
  ScopedLocale locale(std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr
                          ? "de_DE.UTF-8"
                          : "de_DE.utf8");
  if (!locale.active()) {
    GTEST_SKIP() << "no de_DE locale installed";
  }
  // Sanity: the locale really uses ',' — otherwise this test proves
  // nothing.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", 1.5);
  if (std::string(buf) != "1,5") {
    GTEST_SKIP() << "locale did not change the decimal point";
  }

  double v = 0.0;
  EXPECT_TRUE(ParseDoubleText("1.5", &v));
  EXPECT_EQ(v, 1.5);
  EXPECT_EQ(FormatDouble(1.5), "1.5");

  // v1 text: written and parsed with '.' regardless of LC_NUMERIC.
  std::string text = SerializeIndex(*index_);
  EXPECT_EQ(text.find("0,"), std::string::npos);
  auto bundle = ParseIndex(text);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ExpectQueriesIdentical(*index_, *bundle->index);

  // v2 binary snapshot is byte-oriented and equally immune.
  auto bytes = persist::SerializeIndexSnapshot(*index_);
  ASSERT_TRUE(bytes.ok());
  auto snap = persist::ParseIndexSnapshot(*bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ExpectQueriesIdentical(*index_, *snap->index);
}

// -------------------------------------------------------------------
// Result-cache fixes

TEST(ResultCacheFixTest, ClearResetsStatistics) {
  ShardedResultCache cache(2, 16);
  SpatialQuery q = SpatialQuery::Knn({1.0, 2.0}, 3);
  CacheKey key = CacheKey::Make(q, /*epoch=*/0);
  std::vector<Neighbor> out;
  EXPECT_FALSE(cache.Lookup(key, &out));        // miss
  cache.Put(key, {Neighbor{1, 0.5}});           // insertion
  EXPECT_TRUE(cache.Lookup(key, &out));         // hit
  ShardedResultCache::Stats before = cache.stats();
  EXPECT_EQ(before.hits, 1u);
  EXPECT_EQ(before.misses, 1u);
  EXPECT_EQ(before.insertions, 1u);

  cache.Clear();
  ShardedResultCache::Stats after = cache.stats();
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.insertions, 0u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheFixTest, NegativeZeroNormalized) {
  std::vector<double> coords = {1.0, 2.0};
  CacheKey plus = CacheKey::Make(SpatialQuery::Range(coords, 0.0), 4);
  CacheKey minus = CacheKey::Make(SpatialQuery::Range(coords, -0.0), 4);
  EXPECT_EQ(plus.param_bits, minus.param_bits);
  EXPECT_TRUE(plus == minus);

  // Functionally: a result cached under +0.0 hits for -0.0 (equal keys
  // must also hash equal, or the shard map would miss).
  ShardedResultCache cache(4, 16);
  cache.Put(plus, {Neighbor{7, 0.0}});
  std::vector<Neighbor> out;
  EXPECT_TRUE(cache.Lookup(minus, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 7u);

  // Coordinates get the same treatment.
  CacheKey c1 = CacheKey::Make(SpatialQuery::Knn({0.0, 1.0}, 2), 0);
  CacheKey c2 = CacheKey::Make(SpatialQuery::Knn({-0.0, 1.0}, 2), 0);
  cache.Put(c1, {Neighbor{9, 0.25}});
  EXPECT_TRUE(cache.Lookup(c2, &out));
}

// -------------------------------------------------------------------
// QueryEngine warm start

TEST(WarmStartTest, EngineResumesAtSavedEpoch) {
  KdTree tree(kDims, {.bucket_size = 8});
  QueryEngineOptions eopts;
  eopts.threads = 2;
  QueryEngine engine(&tree, eopts);
  for (const KdPoint& p : MakePoints(200, kDims, /*seed=*/3)) {
    ASSERT_TRUE(engine.Insert(p.coords, p.id).ok());
  }

  Rng rng(5);
  std::vector<SpatialQuery> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(i % 2 == 0
                        ? SpatialQuery::Knn(MakeQuery(kDims, &rng), 5)
                        : SpatialQuery::Range(MakeQuery(kDims, &rng), 2.0));
  }
  auto before = engine.Run(batch);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(engine.cache_stats().insertions, 0u);

  std::string path = ::testing::TempDir() + "/engine.snap";
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  auto warm = QueryEngine::WarmStart(path, eopts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // Resumes at the saved index epoch, with an empty zero-stat cache.
  EXPECT_EQ(warm->engine->epoch(), engine.epoch());
  EXPECT_EQ(warm->engine->cache_stats().hits, 0u);
  EXPECT_EQ(warm->engine->cache_stats().insertions, 0u);

  auto after = warm->engine->Run(batch);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->outcomes.size(), before->outcomes.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(after->outcomes[i].neighbors, before->outcomes[i].neighbors);
  }

  // The warm-started engine keeps serving mutations.
  ASSERT_TRUE(
      warm->engine->Insert(MakeQuery(kDims, &rng), 777).ok());
  EXPECT_EQ(warm->engine->epoch(), engine.epoch() + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace semtree

// Environment variables alone never change a C++ program's runtime
// locale (processes start in "C" regardless of LANG/LC_ALL), so CI
// opts the whole suite into the environment's locale explicitly: with
// SEMTREE_TEST_SETLOCALE set and LC_ALL=de_DE.UTF-8, every test above
// runs under a comma-decimal locale, not just the dedicated one.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (std::getenv("SEMTREE_TEST_SETLOCALE") != nullptr) {
    const char* applied = std::setlocale(LC_ALL, "");
    std::printf("process locale: %s\n", applied ? applied : "(failed)");
  }
  return RUN_ALL_TESTS();
}
