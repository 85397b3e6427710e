// Copyright 2026 The SemTree Authors

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "core/backends.h"
#include "kdtree/linear_scan.h"
#include "nlp/requirements_corpus.h"
#include "ontology/requirements_vocabulary.h"
#include "semtree/semantic_index.h"
#include "semtree/semtree.h"
#include "workload/workload_gen.h"
#include "workload/zipf.h"

namespace perfbench {

using semtree::ClusterStats;
using semtree::KdPoint;
using semtree::Neighbor;
using semtree::PointId;
using semtree::QueryEngine;
using semtree::QueryEngineOptions;
using semtree::QueryOutcome;
using semtree::Result;
using semtree::SearchBudget;
using semtree::SemTree;
using semtree::SpatialQuery;
using semtree::Status;
namespace wl = semtree::workload;

namespace {

constexpr size_t kDims = 8;
constexpr size_t kK = 10;
constexpr size_t kTraceOps = 40000;     // Per client; wraps if exhausted.
constexpr size_t kCheckQueries = 300;   // Post-run oracle comparisons.
constexpr size_t kPassOps = 1000;       // Single-client layer pass.
// Ids of points the layer pass inserts and removes again, far above
// every corpus and trace id.
constexpr PointId kPassIdBase = PointId{1} << 50;
// Request ids of the layer pass, apart from the clients' (client << 40).
constexpr uint64_t kPassRequestBase = uint64_t{1} << 62;

// Independent, reproducible stream seed per (seed, stream) pair.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Exact answers over a point set, for the correctness check.

class Oracle {
 public:
  Oracle() : scan_(kDims) {}

  Status Add(const std::vector<double>& coords, PointId id) {
    return scan_.Insert(coords, id);
  }
  size_t size() const { return scan_.size(); }

  std::vector<Neighbor> Answer(const SpatialQuery& q) const {
    return q.type == semtree::QueryType::kKnn
               ? scan_.KnnSearch(q.coords, q.k, SearchBudget::Exact())
               : scan_.RangeSearch(q.coords, q.radius,
                                   SearchBudget::Exact());
  }

 private:
  semtree::LinearScanIndex scan_;
};

// Runs `q` exactly through the engine and compares with the oracle:
// ids and distances must match bit for bit.
bool EngineMatches(QueryEngine* engine, const Oracle& oracle,
                   SpatialQuery q) {
  q.budget = SearchBudget::Exact();
  Result<QueryOutcome> got = engine->RunOne(q);
  return got.ok() && got->neighbors == oracle.Answer(q);
}

// ---------------------------------------------------------------------
// Per-client op streams cut from workload_gen traces.

struct TraceStream {
  wl::WorkloadTrace trace;
  std::vector<SpatialQuery> queries;  // Aligned with trace.ops (reads).
  uint64_t next = 0;
  // Workload-inserted points currently stored, by (remapped) id.
  std::unordered_map<PointId, std::vector<double>> live;
};

Result<TraceStream> MakeStream(const wl::WorkloadConfig& cfg,
                               const std::vector<KdPoint>& corpus) {
  TraceStream s;
  SEMTREE_ASSIGN_OR_RETURN(s.trace, wl::GenerateTrace(cfg, corpus));
  s.queries.resize(s.trace.ops.size());
  for (size_t i = 0; i < s.trace.ops.size(); ++i) {
    const wl::WorkloadOp& op = s.trace.ops[i];
    if (op.kind == wl::OpKind::kKnn) {
      s.queries[i] = SpatialQuery::Knn(op.coords, op.k, op.budget);
    } else if (op.kind == wl::OpKind::kRange) {
      s.queries[i] = SpatialQuery::Range(op.coords, op.radius, op.budget);
    }
  }
  return s;
}

// Runs a stream's next op through the engine. A trace's insert ids
// start at the corpus size; each client and each pass over its trace
// (`generation`) gets its own id block, so no two inserts collide and
// every remove targets a point this client inserted.
OpType StepStream(QueryEngine* engine, TraceStream* s, size_t client,
                  size_t clients, SpanLog* log, Status* status) {
  const size_t n = s->trace.ops.size();
  const size_t i = static_cast<size_t>(s->next % n);
  const uint64_t generation = s->next / n;
  ++s->next;
  const wl::WorkloadOp& op = s->trace.ops[i];
  const PointId id = op.id + (generation * clients + client) * n;
  switch (op.kind) {
    case wl::OpKind::kKnn:
    case wl::OpKind::kRange: {
      ScopedSpan span(log, kEngineRunOne);
      Result<QueryOutcome> r = engine->RunOne(s->queries[i]);
      if (!r.ok()) *status = r.status();
      return op.kind == wl::OpKind::kKnn ? kKnnOp : kRangeOp;
    }
    case wl::OpKind::kInsert: {
      {
        ScopedSpan span(log, kEngineInsert);
        *status = engine->Insert(op.coords, id);
      }
      if (status->ok()) s->live.emplace(id, op.coords);
      return kWriteOp;
    }
    case wl::OpKind::kRemove: {
      {
        ScopedSpan span(log, kEngineRemove);
        *status = engine->Remove(op.coords, id);
      }
      if (status->ok()) s->live.erase(id);
      return kWriteOp;
    }
  }
  return kKnnOp;
}

// Samples exact reads from the streams' traces and checks each engine
// answer against a scan over corpus + live inserts. `stored` is the
// point count the index reports; a wrong count is one more mismatch.
CheckResult CheckStreams(QueryEngine* engine,
                         const std::vector<KdPoint>& corpus,
                         const std::vector<TraceStream>& streams,
                         size_t stored, uint64_t seed) {
  CheckResult out;
  Oracle oracle;
  for (const KdPoint& p : corpus) {
    if (!oracle.Add(p.coords, p.id).ok()) ++out.mismatches;
  }
  for (const TraceStream& s : streams) {
    for (const auto& [id, coords] : s.live) {
      if (!oracle.Add(coords, id).ok()) ++out.mismatches;
    }
  }
  ++out.checked;
  if (stored != oracle.size()) ++out.mismatches;

  semtree::Rng rng(seed);
  for (size_t done = 0; done < kCheckQueries;) {
    const TraceStream& s = streams[rng.Uniform(streams.size())];
    const size_t i = rng.Uniform(s.trace.ops.size());
    const wl::OpKind kind = s.trace.ops[i].kind;
    if (kind != wl::OpKind::kKnn && kind != wl::OpKind::kRange) continue;
    ++done;
    ++out.checked;
    if (!EngineMatches(engine, oracle, s.queries[i])) ++out.mismatches;
  }
  return out;
}

wl::WorkloadConfig TraceConfig(uint64_t keys, uint64_t seed) {
  wl::WorkloadConfig cfg;
  cfg.num_keys = keys;
  cfg.dims = kDims;
  cfg.zipf_s = 0.99;
  cfg.total_ops = kTraceOps;
  cfg.ops_per_phase = 1000;
  cfg.hotset_rotation = 977;
  cfg.mix = wl::OpMix{0.05, 0.05, 0.60, 0.30};
  cfg.budget_tiers = {
      wl::BudgetTier{SearchBudget::Exact(), 0.8},
      wl::BudgetTier{SearchBudget::MaxDistances(128), 0.2},
  };
  cfg.knn_k = kK;
  cfg.range_radius = 0.25;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------
// The SemTree layer pass shared by the three distributed workloads.

struct PassOp {
  OpType type = kKnnOp;
  SpatialQuery query;  // Writes use query.coords.
};

std::vector<PassOp> PassOpsFromTrace(const wl::WorkloadTrace& trace) {
  std::vector<PassOp> ops;
  ops.reserve(trace.ops.size());
  for (const wl::WorkloadOp& op : trace.ops) {
    PassOp p;
    switch (op.kind) {
      case wl::OpKind::kKnn:
        p.query = SpatialQuery::Knn(op.coords, op.k, op.budget);
        break;
      case wl::OpKind::kRange:
        p.type = kRangeOp;
        p.query = SpatialQuery::Range(op.coords, op.radius, op.budget);
        break;
      case wl::OpKind::kInsert:
      case wl::OpKind::kRemove:
        p.type = kWriteOp;
        p.query.coords = op.coords;
        break;
    }
    ops.push_back(std::move(p));
  }
  return ops;
}

ClusterStats Minus(const ClusterStats& a, const ClusterStats& b) {
  ClusterStats d;
  d.messages = a.messages - b.messages;
  d.bytes = a.bytes - b.bytes;
  d.remote_messages = a.remote_messages - b.remote_messages;
  d.calls = a.calls - b.calls;
  d.forwards = a.forwards - b.forwards;
  return d;
}

void Accumulate(const ClusterStats& d, ClusterStats* sum) {
  sum->messages += d.messages;
  sum->bytes += d.bytes;
  sum->remote_messages += d.remote_messages;
  sum->calls += d.calls;
  sum->forwards += d.forwards;
}

SpanCounters Counters(const ClusterStats& d, size_t partitions) {
  return {d.messages, d.bytes, d.remote_messages, d.forwards, d.calls,
          partitions};
}

// Times one direct SemTree call; its cluster counters are exact because
// no other client runs during the pass.
template <typename Fn>
double TimedTreeCall(const SemTree& tree, SpanLog* log, uint16_t name,
                     uint64_t request, ClusterStats* sum, Fn&& fn) {
  ScopedSpan root(log, kOp, request);
  ScopedSpan span(log, name);
  const ClusterStats before = tree.NetworkStats();
  const int64_t t0 = NowNs();
  const size_t partitions = fn();
  const int64_t t1 = NowNs();
  const ClusterStats delta = Minus(tree.NetworkStats(), before);
  Accumulate(delta, sum);
  span.set_counters(Counters(delta, partitions));
  return Micros(t1 - t0);
}

uint64_t SemTreePass(QueryEngine* engine, SemTree* tree,
                     const std::vector<PassOp>& ops, Metrics* out,
                     SpanLog* log) {
  uint64_t failures = 0;
  uint64_t request = kPassRequestBase;

  // Engine self time: a RunOne miss minus the BatchSearch the engine
  // issues for it, on the same query. The order alternates so neither
  // side always runs with warm caches.
  std::vector<double> self_us;
  for (size_t j = 0; j < ops.size(); ++j) {
    if (ops[j].type == kWriteOp) continue;
    const SpatialQuery& q = ops[j].query;
    double engine_us = 0.0;
    double direct_us = 0.0;
    bool miss = false;
    ScopedSpan root(log, kOp, request++);
    auto run_engine = [&] {
      ScopedSpan span(log, kEngineRunOne);
      const int64_t t0 = NowNs();
      Result<QueryOutcome> r = engine->RunOne(q);
      engine_us = Micros(NowNs() - t0);
      if (!r.ok()) ++failures;
      miss = r.ok() && !r->from_cache;
    };
    auto run_direct = [&] {
      ScopedSpan span(log, kSemtreeBatch);
      const std::vector<SpatialQuery> batch{q};
      const int64_t t0 = NowNs();
      auto r = tree->BatchSearch(batch);
      direct_us = Micros(NowNs() - t0);
      if (!r.ok()) ++failures;
    };
    if (j % 2 == 0) {
      run_engine();
      run_direct();
    } else {
      run_direct();
      run_engine();
    }
    if (miss) self_us.push_back(engine_us - direct_us);
  }

  // Direct SemTree calls with exact cluster and partition deltas.
  // Writes insert a fresh point and remove it again, so the stored set
  // (and every cached answer) is unchanged afterwards.
  std::vector<double> lat[kNumOpTypes];
  ClusterStats cluster{};
  uint64_t calls = 0;
  uint64_t queries = 0;
  uint64_t partitions = 0;
  uint64_t truncated = 0;
  const semtree::SemTreeDebugStats before = tree->DebugStats();
  for (size_t j = 0; j < ops.size(); ++j) {
    const PassOp& op = ops[j];
    const SpatialQuery& q = op.query;
    if (op.type == kWriteOp) {
      const PointId id = kPassIdBase + j;
      lat[kWriteOp].push_back(TimedTreeCall(
          *tree, log, kSemtreeInsert, request++, &cluster, [&]() -> size_t {
            if (!tree->Insert(q.coords, id).ok()) ++failures;
            return 0;
          }));
      lat[kWriteOp].push_back(TimedTreeCall(
          *tree, log, kSemtreeRemove, request++, &cluster, [&]() -> size_t {
            if (!tree->Remove(q.coords, id).ok()) ++failures;
            return 0;
          }));
      calls += 2;
      continue;
    }
    semtree::DistributedSearchStats ds;
    const bool knn = op.type == kKnnOp;
    lat[op.type].push_back(TimedTreeCall(
        *tree, log, knn ? kSemtreeKnn : kSemtreeRange, request++, &cluster,
        [&]() -> size_t {
          auto r = knn ? tree->KnnSearch(q.coords, q.k, q.budget, &ds)
                       : tree->RangeSearch(q.coords, q.radius, q.budget,
                                           &ds);
          if (!r.ok()) ++failures;
          return ds.partitions_visited;
        }));
    ++calls;
    ++queries;
    partitions += ds.partitions_visited;
    if (ds.truncated) ++truncated;
  }
  const semtree::SemTreeDebugStats after = tree->DebugStats();

  // Partition load deltas over the direct pass, by partition id.
  std::map<int32_t, semtree::PartitionStats> start;
  for (const auto& p : before.partitions) start[p.id] = p;
  double distances = 0.0;
  double max_ops = 0.0;
  double sum_ops = 0.0;
  size_t data_partitions = 0;
  size_t routing_only = 0;
  for (const auto& p : after.partitions) {
    const auto it = start.find(p.id);
    const double ops0 = it == start.end() ? 0.0 : it->second.load_ops;
    const double dist0 = it == start.end() ? 0.0 : it->second.load_distances;
    distances += p.load_distances - dist0;
    if (p.points > 0) {
      ++data_partitions;
      max_ops = std::max(max_ops, p.load_ops - ops0);
      sum_ops += p.load_ops - ops0;
    } else if (p.routing > 0) {
      ++routing_only;
    }
  }

  auto per_query = [&](double v) { return Ratio(v, queries); };
  auto per_call = [&](double v) { return Ratio(v, calls); };
  (*out)["engine.self_us"] = Median(self_us);
  (*out)["semtree.knn_p50_us"] = Median(lat[kKnnOp]);
  (*out)["semtree.range_p50_us"] = Median(lat[kRangeOp]);
  (*out)["semtree.write_p50_us"] = Median(lat[kWriteOp]);
  (*out)["semtree.partitions_per_query"] = per_query(partitions);
  (*out)["semtree.truncated_frac"] = per_query(truncated);
  (*out)["cluster.msgs_per_op"] = per_call(cluster.messages);
  (*out)["cluster.bytes_per_op"] = per_call(cluster.bytes);
  (*out)["cluster.remote_msgs_per_op"] = per_call(cluster.remote_messages);
  (*out)["cluster.forwards_per_op"] = per_call(cluster.forwards);
  (*out)["cluster.calls_per_op"] = per_call(cluster.calls);
  (*out)["partition.dist_per_query"] = per_query(distances);
  (*out)["partition.load_skew"] =
      Ratio(max_ops, Ratio(sum_ops, data_partitions));
  (*out)["partition.routing_only"] = static_cast<double>(routing_only);
  (*out)["rebalance.splits"] = static_cast<double>(after.rebalance.splits);
  (*out)["rebalance.merges"] = static_cast<double>(after.rebalance.merges);
  (*out)["rebalance.migrations"] =
      static_cast<double>(after.rebalance.migrations);
  (*out)["rebalance.points_moved"] =
      static_cast<double>(after.rebalance.points_moved);
  return failures;
}

// ---------------------------------------------------------------------
// semantic-knn: the paper's query-by-example path.

class SemanticKnn : public Workload {
 public:
  explicit SemanticKnn(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    vocab_ = semtree::RequirementsVocabulary();
    // ~50 requirements per document, one triple each; actors scale with
    // the corpus so triples stay mostly distinct.
    semtree::CorpusOptions copts;
    copts.min_requirements_per_doc = 40;
    copts.max_requirements_per_doc = 60;
    copts.num_documents = kTriples / 50 + 1;
    copts.num_actors = kTriples / 50;
    copts.seed = Mix(seed_, 1);
    semtree::RequirementsCorpusGenerator gen(&vocab_, copts);
    SEMTREE_ASSIGN_OR_RETURN(triples_, gen.GenerateTriples());
    if (triples_.size() > kTriples) triples_.resize(kTriples);

    // Popularity rank -> triple, so the hot triples are spread over
    // the corpus rather than being its first documents.
    rank_to_triple_.resize(triples_.size());
    std::iota(rank_to_triple_.begin(), rank_to_triple_.end(), size_t{0});
    semtree::Rng rng(Mix(seed_, 2));
    rng.Shuffle(&rank_to_triple_);
    for (size_t c = 0; c < kSemanticClients; ++c) {
      clients_.emplace_back(triples_.size(), 0.99, Mix(seed_, 100 + c));
    }
    recorded_.resize(kSemanticClients);
    return Status::OK();
  }

  Status Setup() override {
    engine_.reset();
    index_.reset();
    semtree::SemanticIndexOptions opts;
    opts.fastmap.dimensions = kDims;
    opts.fastmap.seed = Mix(seed_, 3);
    opts.max_partitions = kPartitions;
    opts.bulk_load = true;
    SEMTREE_ASSIGN_OR_RETURN(
        index_, semtree::SemanticIndex::Build(&vocab_, triples_, opts));
    engine_ = std::make_unique<QueryEngine>(&index_->tree());
    return Status::OK();
  }

  size_t clients() const override { return kSemanticClients; }

  OpType Step(size_t client, SpanLog* trace, Status* status) override {
    Client& c = clients_[client];
    const size_t t = rank_to_triple_[c.zipf.Next()];
    std::vector<double> coords;
    {
      ScopedSpan span(trace, kFastmapEmbed);
      coords = index_->Embed(index_->triple(t));
    }
    ScopedSpan span(trace, kEngineRunOne);
    Result<QueryOutcome> r =
        engine_->RunOne(SpatialQuery::Knn(std::move(coords), kK));
    if (!r.ok()) {
      *status = r.status();
    } else if (++c.ops % kRecordEvery == 0 &&
               recorded_[client].size() < kRecordMax) {
      recorded_[client].push_back({t, std::move(r->neighbors)});
    }
    return kKnnOp;
  }

  CheckResult Check() override {
    CheckResult out;
    Oracle oracle;
    const semtree::FastMap& fm = index_->fastmap();
    for (size_t i = 0; i < fm.size(); ++i) {
      if (!oracle.Add(fm.Coordinates(i), i).ok()) ++out.mismatches;
    }
    ++out.checked;
    if (index_->tree().size() != oracle.size()) ++out.mismatches;
    // Answers clients received during the run...
    for (const auto& per_client : recorded_) {
      for (const auto& [t, neighbors] : per_client) {
        ++out.checked;
        const SpatialQuery q =
            SpatialQuery::Knn(index_->Embed(index_->triple(t)), kK);
        if (neighbors != oracle.Answer(q)) ++out.mismatches;
      }
    }
    // ...and fresh ones, hot (likely cached) and uniform.
    semtree::Rng rng(Mix(seed_, 4));
    wl::ZipfianGenerator zipf(triples_.size(), 0.99, Mix(seed_, 5));
    for (size_t j = 0; j < kCheckQueries; ++j) {
      const size_t t = j % 2 == 0 ? rank_to_triple_[zipf.Next()]
                                  : rng.Uniform(triples_.size());
      ++out.checked;
      const SpatialQuery q =
          SpatialQuery::Knn(index_->Embed(index_->triple(t)), kK);
      if (!EngineMatches(engine_.get(), oracle, q)) ++out.mismatches;
    }
    return out;
  }

  uint64_t LayerPass(Metrics* out, SpanLog* log) override {
    // Uniform triples: mostly cache misses, so the pass sees the tree.
    semtree::Rng rng(Mix(seed_, 6));
    std::vector<PassOp> ops(kPassOps);
    for (PassOp& op : ops) {
      const size_t t = rng.Uniform(triples_.size());
      op.query = SpatialQuery::Knn(index_->Embed(index_->triple(t)), kK);
    }
    return SemTreePass(engine_.get(), &index_->tree(), ops, out, log);
  }

  QueryEngine& engine() override { return *engine_; }

  Metrics Config() const override {
    return {{"corpus_triples", static_cast<double>(triples_.size())},
            {"fastmap_dims", static_cast<double>(kDims)},
            {"partitions", static_cast<double>(kPartitions)},
            {"clients", static_cast<double>(kSemanticClients)},
            {"k", static_cast<double>(kK)},
            {"zipf_s", 0.99},
            {"cache_capacity",
             static_cast<double>(QueryEngineOptions{}.cache_capacity)}};
  }

 private:
  static constexpr size_t kTriples = 50000;
  // Embed keeps a client busy on a core. Two leave two cores to the
  // tree's five partition workers; with three or four, a cache miss
  // waits for a scheduler time slice behind the clients, and ops/s
  // varied by up to 2x between runs of one seed.
  static constexpr size_t kSemanticClients = 2;
  static constexpr size_t kPartitions = 5;
  static constexpr uint64_t kRecordEvery = 512;
  static constexpr size_t kRecordMax = 64;

  struct Client {
    Client(uint64_t n, double s, uint64_t seed) : zipf(n, s, seed) {}
    wl::ZipfianGenerator zipf;
    uint64_t ops = 0;
  };

  uint64_t seed_;
  semtree::Taxonomy vocab_;
  std::vector<semtree::Triple> triples_;
  std::vector<size_t> rank_to_triple_;
  std::vector<Client> clients_;
  // Per client: (triple, answer) of every kRecordEvery-th op.
  std::vector<std::vector<std::pair<size_t, std::vector<Neighbor>>>>
      recorded_;
  std::unique_ptr<semtree::SemanticIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

// ---------------------------------------------------------------------
// skew-rebalance: Zipf-hot keys of a contiguously clustered corpus crowd
// one or two of the data partitions; the rebalancer reshapes the tree,
// then the clients run k-NN/range traffic on the layout it produced.

class SkewRebalance : public Workload {
 public:
  explicit SkewRebalance(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    corpus_ = wl::MakeContiguousClusteredCorpus(kKeys, kDims, 16,
                                                Mix(seed_, 1));
    for (size_t c = 0; c < kSkewClients; ++c) {
      SEMTREE_ASSIGN_OR_RETURN(TraceStream s,
                               MakeStream(ReadsOnly(Mix(seed_, 100 + c)),
                                          corpus_));
      streams_.push_back(std::move(s));
    }
    // The layer pass also times writes: it runs alone, after the
    // rebalancer has finished.
    wl::WorkloadConfig pass = GenConfig(Mix(seed_, 7));
    pass.total_ops = kPassOps;
    SEMTREE_ASSIGN_OR_RETURN(pass_trace_, wl::GenerateTrace(pass, corpus_));
    wl::WorkloadConfig shape = ReadsOnly(Mix(seed_, 9));
    shape.total_ops = kShapeOps;
    SEMTREE_ASSIGN_OR_RETURN(shape_, MakeStream(shape, corpus_));
    return Status::OK();
  }

  Status Setup() override {
    engine_.reset();
    tree_.reset();
    semtree::SemTreeOptions topts;
    topts.dimensions = kDims;
    topts.max_partitions = kPartitions;
    topts.bulk_load_partitions = kDataPartitions;
    SEMTREE_ASSIGN_OR_RETURN(tree_, SemTree::Create(topts));
    SEMTREE_RETURN_NOT_OK(tree_->BulkLoadBalanced(corpus_));
    engine_ = std::make_unique<QueryEngine>(tree_.get());
    return Status::OK();
  }

  // One client replays the shaping trace through the engine and calls
  // SemTree::RebalanceTick every kShapeTickOps ops. Single-client load
  // counters make the rebalancer see the same skew, and reshape the
  // tree the same way, on every run of a seed. (A free-running
  // rebalancer under concurrent clients reshapes it differently on each
  // run.)
  Status Start() override {
    for (size_t i = 0; i < shape_.queries.size(); ++i) {
      Result<QueryOutcome> r = engine_->RunOne(shape_.queries[i]);
      if (!r.ok()) return r.status();
      if ((i + 1) % kShapeTickOps != 0) continue;
      const int64_t t0 = NowNs();
      const Status st = tree_->RebalanceTick();
      tick_us_.push_back(Micros(NowNs() - t0));
      SEMTREE_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  size_t clients() const override { return kSkewClients; }

  OpType Step(size_t client, SpanLog* trace, Status* status) override {
    return StepStream(engine_.get(), &streams_[client], client,
                      kSkewClients, trace, status);
  }

  CheckResult Check() override {
    CheckResult out =
        CheckStreams(engine_.get(), corpus_, streams_, tree_->size(),
                     Mix(seed_, 8));
    ++out.checked;
    if (!tree_->CheckInvariants().ok()) ++out.mismatches;
    return out;
  }

  uint64_t LayerPass(Metrics* out, SpanLog* log) override {
    const uint64_t failures = SemTreePass(
        engine_.get(), tree_.get(), PassOpsFromTrace(pass_trace_), out, log);
    (*out)["rebalance.tick_p50_us"] = Median(tick_us_);
    return failures;
  }

  QueryEngine& engine() override { return *engine_; }

  Metrics Config() const override {
    return {{"corpus_points", static_cast<double>(kKeys)},
            {"dims", static_cast<double>(kDims)},
            {"partitions", static_cast<double>(kPartitions)},
            {"bulk_load_partitions", static_cast<double>(kDataPartitions)},
            {"rebalance_ticks", static_cast<double>(kShapeOps / kShapeTickOps)},
            {"clients", static_cast<double>(kSkewClients)},
            {"trace_ops_per_client", static_cast<double>(kTraceOps)},
            {"cache_capacity",
             static_cast<double>(QueryEngineOptions{}.cache_capacity)}};
  }

 private:
  static constexpr uint64_t kKeys = 60000;
  static constexpr size_t kPartitions = 12;
  static constexpr size_t kDataPartitions = 4;  // Leaves idle seats.
  // Every op lands on the hot partition's worker, which two clients
  // already saturate (four gave the same ops/s at twice the latency,
  // and a queueing tail that varied more from run to run).
  static constexpr size_t kSkewClients = 2;
  static constexpr size_t kShapeOps = 6000;
  static constexpr size_t kShapeTickOps = 100;

  // The fixed hot set gives the rebalancer a stable skew to act on.
  wl::WorkloadConfig GenConfig(uint64_t seed) const {
    wl::WorkloadConfig cfg = TraceConfig(kKeys, seed);
    cfg.ops_per_phase = 0;
    return cfg;
  }
  // Client traffic has no inserts or removes: a remove that races a
  // rebalance step can miss its point (NotFound).
  wl::WorkloadConfig ReadsOnly(uint64_t seed) const {
    wl::WorkloadConfig cfg = GenConfig(seed);
    cfg.mix.insert = cfg.mix.remove = 0.0;
    return cfg;
  }

  uint64_t seed_;
  std::vector<KdPoint> corpus_;
  std::vector<TraceStream> streams_;
  wl::WorkloadTrace pass_trace_;
  TraceStream shape_;  // Replayed once by Start().
  std::vector<double> tick_us_;
  std::unique_ptr<SemTree> tree_;
  std::unique_ptr<QueryEngine> engine_;
};

// ---------------------------------------------------------------------
// local-rw: a sequential KD-tree behind the engine, cache off; three
// closed-loop readers and one paced writer.

class LocalRw : public Workload {
 public:
  explicit LocalRw(uint64_t seed) : seed_(seed) {}

  Status Prepare() override {
    corpus_ = wl::MakeClusteredCorpus(kKeys, kDims, 16, Mix(seed_, 1));
    for (size_t c = 0; c < kClients; ++c) {
      wl::WorkloadConfig cfg = TraceConfig(kKeys, Mix(seed_, 100 + c));
      cfg.budget_tiers.clear();
      cfg.mix = is_writer(c) ? wl::OpMix{0.5, 0.5, 0.0, 0.0}
                             : wl::OpMix{0.0, 0.0, 0.6, 0.3};
      SEMTREE_ASSIGN_OR_RETURN(TraceStream s, MakeStream(cfg, corpus_));
      streams_.push_back(std::move(s));
    }
    wl::WorkloadConfig pass = TraceConfig(kKeys, Mix(seed_, 7));
    pass.budget_tiers.clear();
    pass.mix = wl::OpMix{0.0, 0.0, 0.6, 0.3};
    pass.total_ops = kPassOps;
    SEMTREE_ASSIGN_OR_RETURN(TraceStream s, MakeStream(pass, corpus_));
    pass_queries_ = std::move(s.queries);
    return Status::OK();
  }

  Status Setup() override {
    engine_.reset();
    index_ = semtree::MakeSpatialIndex(semtree::BackendKind::kKdTree, kDims);
    SEMTREE_RETURN_NOT_OK(index_->BulkLoad(corpus_));
    QueryEngineOptions eopts;
    eopts.cache_capacity = 0;
    engine_ = std::make_unique<QueryEngine>(index_.get(), eopts);
    return Status::OK();
  }

  size_t clients() const override { return kClients; }
  bool is_writer(size_t client) const override { return client == kWriter; }

  void Pace(size_t client) override {
    if (client != kWriter) return;
    const auto now = std::chrono::steady_clock::now();
    // A writer that fell behind resumes its rate instead of bursting.
    if (next_write_ < now - kWritePeriod) next_write_ = now;
    std::this_thread::sleep_until(next_write_);
    next_write_ += kWritePeriod;
  }

  OpType Step(size_t client, SpanLog* trace, Status* status) override {
    return StepStream(engine_.get(), &streams_[client], client, kClients,
                      trace, status);
  }

  CheckResult Check() override {
    return CheckStreams(engine_.get(), corpus_, streams_, index_->size(),
                        Mix(seed_, 8));
  }

  uint64_t LayerPass(Metrics* out, SpanLog* log) override {
    uint64_t failures = 0;
    uint64_t request = kPassRequestBase;
    std::vector<double> self_us;
    std::vector<double> knn_us;
    uint64_t examined = 0;
    for (size_t j = 0; j < pass_queries_.size(); ++j) {
      const SpatialQuery& q = pass_queries_[j];
      if (q.coords.empty()) continue;
      const bool knn = q.type == semtree::QueryType::kKnn;
      double engine_us = 0.0;
      double direct_us = 0.0;
      ScopedSpan root(log, kOp, request++);
      auto run_engine = [&] {
        ScopedSpan span(log, kEngineRunOne);
        const int64_t t0 = NowNs();
        if (!engine_->RunOne(q).ok()) ++failures;
        engine_us = Micros(NowNs() - t0);
      };
      // Direct call on the index: safe without the engine's lock, as
      // nothing else runs during the pass.
      auto run_direct = [&] {
        ScopedSpan span(log, knn ? kKdtreeKnn : kKdtreeRange);
        semtree::SearchStats stats;
        const int64_t t0 = NowNs();
        if (knn) {
          index_->KnnSearch(q.coords, q.k, q.budget, &stats);
        } else {
          index_->RangeSearch(q.coords, q.radius, q.budget, &stats);
        }
        direct_us = Micros(NowNs() - t0);
        examined += stats.points_examined;
      };
      if (j % 2 == 0) {
        run_engine();
        run_direct();
      } else {
        run_direct();
        run_engine();
      }
      self_us.push_back(engine_us - direct_us);
      if (knn) knn_us.push_back(direct_us);
    }
    (*out)["engine.self_us"] = Median(self_us);
    (*out)["kdtree.knn_p50_us"] = Median(knn_us);
    (*out)["kdtree.points_examined_per_query"] =
        Ratio(static_cast<double>(examined),
              static_cast<double>(self_us.size()));
    return failures;
  }

  QueryEngine& engine() override { return *engine_; }

  Metrics Config() const override {
    return {{"corpus_points", static_cast<double>(kKeys)},
            {"dims", static_cast<double>(kDims)},
            {"partitions", 0.0},
            {"clients", static_cast<double>(kClients)},
            {"readers", static_cast<double>(kClients - 1)},
            {"writer_ops_per_s", 1e3 / static_cast<double>(
                                           kWritePeriod.count())},
            {"cache_capacity", 0.0}};
  }

 private:
  static constexpr uint64_t kKeys = 100000;
  static constexpr size_t kClients = 4;
  static constexpr size_t kWriter = kClients - 1;
  static constexpr std::chrono::milliseconds kWritePeriod{1};

  uint64_t seed_;
  std::vector<KdPoint> corpus_;
  std::vector<TraceStream> streams_;
  std::vector<SpatialQuery> pass_queries_;  // Empty coords = no read.
  std::chrono::steady_clock::time_point next_write_{};
  std::unique_ptr<semtree::SpatialIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "semantic-knn", "skew-rebalance", "local-rw"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "semantic-knn") return std::make_unique<SemanticKnn>(seed);
  if (name == "skew-rebalance") return std::make_unique<SkewRebalance>(seed);
  if (name == "local-rw") return std::make_unique<LocalRw>(seed);
  return nullptr;
}

}  // namespace perfbench
