// Copyright 2026 The SemTree Authors
//
// Online-rebalancing bench (DESIGN.md §12): a Zipfian query trace over
// a *contiguously* clustered corpus concentrates nearly all traffic on
// one data partition, and the bench measures saturation throughput
// twice on identically bulk-loaded trees — once with the rebalancer
// off (the hot partition, whose handlers run one at a time, is the
// ceiling) and once with it on (splits spread the hot subtree over
// idle seats, so concurrent queries pipeline across partitions). Emits
// BENCH_rebalance.json.
//
// Always a gate (exit 1 on violation), `--smoke` only shrinks sizes:
//  * both runs complete with zero op errors;
//  * the rebalancing run performed >= 1 split;
//  * after quiescing, sampled k-NN and range results from the
//    rebalanced tree are byte-identical to the never-rebalanced twin;
//  * CheckInvariants() passes and both trees store the full corpus;
//  * throughput(on) >= `--min-ratio` (default 1.5) x throughput(off) —
//    this one gate self-skips on hosts with < 4 hardware threads,
//    where there are no idle cores for the spread load to use.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "engine/query_engine.h"
#include "semtree/semtree.h"
#include "workload/driver.h"
#include "workload/workload_gen.h"

namespace semtree {
namespace bench {
namespace {

constexpr char kFigure[] = "rebalance";

struct Config {
  workload::WorkloadConfig gen;
  workload::DriverConfig driver;
  size_t max_partitions = 16;
  size_t bulk_load_partitions = 4;
  size_t bucket_size = 32;
  size_t identity_samples = 200;
  double min_ratio = 1.5;
  std::string json_path = "BENCH_rebalance.json";
  bool smoke = false;
};

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  cfg.gen.num_keys = 60000;
  cfg.gen.dims = 8;
  cfg.gen.total_ops = 120000;
  cfg.gen.zipf_s = 1.05;
  // Pure-query trace: both trees keep the identical point set, so the
  // off run doubles as the byte-identity reference.
  cfg.gen.mix = workload::OpMix{0.0, 0.0, 0.7, 0.3};
  cfg.gen.knn_k = 8;
  cfg.gen.range_radius = 0.2;
  // Saturation: issue far faster than service, so throughput measures
  // the index, not the arrival pacing.
  cfg.driver.target_qps = 5e6;
  cfg.driver.workers = 8;
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
      cfg.gen.num_keys = 16000;
      cfg.gen.total_ops = 24000;
      cfg.max_partitions = 12;
      cfg.identity_samples = 100;
      cfg.driver.workers = 4;
    } else if (std::strcmp(a, "--keys") == 0) {
      cfg.gen.num_keys = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--ops") == 0) {
      cfg.gen.total_ops = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--dims") == 0) {
      cfg.gen.dims = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--zipf-s") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.gen.zipf_s)) {
        std::fprintf(stderr, "bad --zipf-s value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.gen.seed = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--workers") == 0) {
      cfg.driver.workers = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--partitions") == 0) {
      cfg.max_partitions = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--bulk-partitions") == 0) {
      cfg.bulk_load_partitions = std::strtoull(next(&i), nullptr, 10);
    } else if (std::strcmp(a, "--min-ratio") == 0) {
      const char* v = next(&i);
      if (!ParseDoubleText(v, &cfg.min_ratio)) {
        std::fprintf(stderr, "bad --min-ratio value: %s\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--json") == 0) {
      cfg.json_path = next(&i);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      std::exit(2);
    }
  }
  return cfg;
}

std::unique_ptr<SemTree> MakeTree(const Config& cfg,
                                  const std::vector<KdPoint>& corpus) {
  SemTreeOptions topts;
  topts.dimensions = cfg.gen.dims;
  topts.bucket_size = cfg.bucket_size;
  topts.max_partitions = cfg.max_partitions;
  // Bulk-load over fewer seats than the cluster has, so the skewed
  // traffic lands on one of few data partitions AND idle seats exist
  // for the rebalancer to split into.
  topts.bulk_load_partitions = cfg.bulk_load_partitions;
  // Aggressive rebalancer: the measured window is short, so react
  // within a few ticks instead of the production defaults.
  topts.rebalance.interval = std::chrono::milliseconds(5);
  topts.rebalance.min_split_points = 2 * cfg.bucket_size;
  topts.rebalance.split_load_factor = 1.5;
  topts.rebalance.min_total_load = 1.0;
  auto made = SemTree::Create(topts);
  if (!made.ok()) {
    std::fprintf(stderr, "semtree create failed: %s\n",
                 made.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<SemTree> tree = std::move(*made);
  Status st = tree->BulkLoadBalanced(corpus);
  if (!st.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return tree;
}

workload::DriverReport RunTrace(SemTree* tree,
                                const workload::WorkloadTrace& trace,
                                const Config& cfg) {
  QueryEngineOptions eopts;
  eopts.cache_capacity = 0;  // Measure the index, not the cache.
  QueryEngine engine(tree, eopts);
  auto report = workload::RunOpenLoop(&engine, trace, cfg.driver);
  if (!report.ok()) {
    std::fprintf(stderr, "driver failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*report);
}

void AddRunRecord(BenchJson* json, const char* mode,
                  const workload::PhaseStats& total) {
  json->BeginRecord();
  json->AddStr("record", "run");
  json->AddStr("mode", mode);
  json->AddInt("completed", total.completed);
  json->AddInt("errors", total.errors);
  json->AddInt("truncated", total.truncated);
  json->AddInt("p50_us", total.latency.ValueAtQuantile(0.50));
  json->AddInt("p99_us", total.latency.ValueAtQuantile(0.99));
  json->AddInt("p999_us", total.latency.ValueAtQuantile(0.999));
  json->AddNum("throughput_qps", total.throughput_qps);
  json->AddNum("duration_s", total.duration_s);
}

// Byte-identity of sampled exact query results between the rebalanced
// tree and the never-rebalanced twin. Distance arithmetic is identical
// code on identical point sets, and results sort by (distance, id), so
// any mismatch means the rebalance lost, duplicated or moved a point
// across a region boundary.
bool ResultsIdentical(const SemTree& rebalanced, const SemTree& reference,
                      const workload::WorkloadTrace& trace,
                      size_t samples) {
  size_t checked = 0;
  const size_t stride =
      std::max<size_t>(1, trace.ops.size() / std::max<size_t>(1, samples));
  for (size_t i = 0; i < trace.ops.size() && checked < samples;
       i += stride) {
    const workload::WorkloadOp& op = trace.ops[i];
    Result<std::vector<Neighbor>> got =
        op.kind == workload::OpKind::kKnn
            ? rebalanced.KnnSearch(op.coords, op.k)
            : rebalanced.RangeSearch(op.coords, op.radius);
    Result<std::vector<Neighbor>> want =
        op.kind == workload::OpKind::kKnn
            ? reference.KnnSearch(op.coords, op.k)
            : reference.RangeSearch(op.coords, op.radius);
    if (!got.ok() || !want.ok()) {
      std::fprintf(stderr, "identity query failed: %s\n",
                   (!got.ok() ? got.status() : want.status())
                       .ToString()
                       .c_str());
      return false;
    }
    if (!(*got == *want)) {
      std::fprintf(stderr,
                   "identity mismatch at op %zu (%s): %zu vs %zu results\n",
                   i, workload::OpKindName(op.kind), got->size(),
                   want->size());
      return false;
    }
    ++checked;
  }
  return checked > 0;
}

int Main(int argc, char** argv) {
  Config cfg = ParseArgs(argc, argv);
  PrintHeader(kFigure, "Online rebalancing under Zipfian skew",
              "mode,throughput_qps,p99;splits;merges;migrations");

  auto corpus = workload::MakeContiguousClusteredCorpus(
      cfg.gen.num_keys, cfg.gen.dims, /*clusters=*/16, cfg.gen.seed);
  auto trace = workload::GenerateTrace(cfg.gen, corpus);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  // Rebalancing OFF: the skewed trace against a static tree. This tree
  // is never mutated, so it doubles as the byte-identity reference.
  std::unique_ptr<SemTree> tree_off = MakeTree(cfg, corpus);
  workload::DriverReport off = RunTrace(tree_off.get(), *trace, cfg);
  PrintRow(kFigure, "off", 0.0, off.total.throughput_qps,
           StringPrintf("p99=%llu", static_cast<unsigned long long>(
                                        off.total.latency.ValueAtQuantile(
                                            0.99))));

  // Rebalancing ON: identical tree, background rebalancer live for the
  // whole run.
  std::unique_ptr<SemTree> tree_on = MakeTree(cfg, corpus);
  Status st = tree_on->StartRebalancer();
  if (!st.ok()) {
    std::fprintf(stderr, "rebalancer start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  workload::DriverReport on = RunTrace(tree_on.get(), *trace, cfg);
  tree_on->StopRebalancer();
  SemTreeDebugStats dbg = tree_on->DebugStats();
  PrintRow(kFigure, "on", 1.0, on.total.throughput_qps,
           StringPrintf(
               "p99=%llu;splits=%llu;merges=%llu;migrations=%llu",
               static_cast<unsigned long long>(
                   on.total.latency.ValueAtQuantile(0.99)),
               static_cast<unsigned long long>(dbg.rebalance.splits),
               static_cast<unsigned long long>(dbg.rebalance.merges),
               static_cast<unsigned long long>(dbg.rebalance.migrations)));
  std::printf("# %s\n", dbg.ToString().c_str());

  // Post-quiesce correctness: identity, invariants, point counts.
  const bool identical = ResultsIdentical(*tree_on, *tree_off, *trace,
                                          cfg.identity_samples);
  Status inv = tree_on->CheckInvariants();
  const bool points_equal = tree_on->size() == corpus.size() &&
                            tree_off->size() == corpus.size();
  const double ratio = off.total.throughput_qps > 0.0
                           ? on.total.throughput_qps /
                                 off.total.throughput_qps
                           : 0.0;
  const size_t hw = std::thread::hardware_concurrency();
  const bool ratio_gated = hw >= 4;

  BenchJson json("rebalance", cfg.json_path);
  json.BeginRecord();
  json.AddStr("record", "config");
  json.AddInt("seed", cfg.gen.seed);
  json.AddInt("keys", cfg.gen.num_keys);
  json.AddInt("dims", cfg.gen.dims);
  json.AddInt("ops", cfg.gen.total_ops);
  json.AddNum("zipf_s", cfg.gen.zipf_s);
  json.AddInt("workers", cfg.driver.workers);
  json.AddInt("max_partitions", cfg.max_partitions);
  json.AddInt("bulk_load_partitions", cfg.bulk_load_partitions);
  json.AddInt("bucket_size", cfg.bucket_size);
  json.AddNum("min_ratio", cfg.min_ratio);
  json.AddInt("hardware_threads", hw);
  AddRunRecord(&json, "off", off.total);
  AddRunRecord(&json, "on", on.total);
  json.BeginRecord();
  json.AddStr("record", "rebalance");
  json.AddInt("ticks", dbg.rebalance.ticks);
  json.AddInt("splits", dbg.rebalance.splits);
  json.AddInt("merges", dbg.rebalance.merges);
  json.AddInt("migrations", dbg.rebalance.migrations);
  json.AddInt("points_moved", dbg.rebalance.points_moved);
  json.AddInt("partitions", dbg.partitions.size());
  json.BeginRecord();
  json.AddStr("record", "summary");
  json.AddNum("throughput_ratio", ratio);
  json.AddInt("identical", identical ? 1 : 0);
  json.AddInt("invariants_ok", inv.ok() ? 1 : 0);
  json.AddInt("points_equal", points_equal ? 1 : 0);
  json.AddInt("ratio_gated", ratio_gated ? 1 : 0);
  if (!json.Write()) return 1;
  std::printf("# wrote %s (ratio=%.3f, splits=%" PRIu64 ")\n",
              json.path().c_str(), ratio, dbg.rebalance.splits);

  bool failed = false;
  if (off.total.errors != 0 || on.total.errors != 0) {
    std::fprintf(stderr,
                 "REBALANCE FAIL: op errors (off=%" PRIu64 " on=%" PRIu64
                 ")\n",
                 off.total.errors, on.total.errors);
    failed = true;
  }
  if (dbg.rebalance.splits == 0) {
    std::fprintf(stderr,
                 "REBALANCE FAIL: the rebalancer never split under a "
                 "Zipf-%0.2f hot partition\n",
                 cfg.gen.zipf_s);
    failed = true;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "REBALANCE FAIL: rebalanced results differ from the "
                 "never-rebalanced twin\n");
    failed = true;
  }
  if (!inv.ok()) {
    std::fprintf(stderr, "REBALANCE FAIL: invariants: %s\n",
                 inv.ToString().c_str());
    failed = true;
  }
  if (!points_equal) {
    std::fprintf(stderr,
                 "REBALANCE FAIL: point counts (on=%zu off=%zu "
                 "corpus=%zu)\n",
                 tree_on->size(), tree_off->size(), corpus.size());
    failed = true;
  }
  if (!ratio_gated) {
    std::fprintf(stderr,
                 "# SKIP throughput-ratio gate: only %zu hardware "
                 "threads (need >= 4)\n",
                 hw);
  } else if (ratio < cfg.min_ratio) {
    std::fprintf(stderr,
                 "REBALANCE FAIL: throughput ratio %.3f < %.2f "
                 "(on=%.0f qps, off=%.0f qps)\n",
                 ratio, cfg.min_ratio, on.total.throughput_qps,
                 off.total.throughput_qps);
    failed = true;
  }
  if (failed) return 1;
  std::printf("# REBALANCE OK: ratio=%.3f%s, %" PRIu64
              " splits, results byte-identical, invariants hold\n",
              ratio, ratio_gated ? "" : " (ratio gate skipped)",
              dbg.rebalance.splits);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace semtree

int main(int argc, char** argv) {
  return semtree::bench::Main(argc, argv);
}
