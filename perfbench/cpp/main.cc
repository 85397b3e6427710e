// Copyright 2026 The SemTree Authors
//
// perfbench: runs one workload of the SemTree benchmark and writes its
// report as JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out REPORT.json [--spans SPANS.tsv]
//
// A run sets the index up several times (setup_s is the median), warms
// up, then drives the workload's closed-loop clients for S seconds.
// With --trace 1 it also runs a traced window (every 32nd request
// records spans), a readers-only window where the workload has a
// writer, and a single-client pass timing direct calls into each
// layer. Every run ends by comparing sampled exact answers with a
// linear scan; the exit code is 0 only when all of them match and no
// op failed. perfbench/run.py builds this program and is the command
// to use.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kWarmupSeconds = 2.0;
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 1.5;
constexpr uint64_t kTraceEvery = 32;  // Head sampling of traced requests.
constexpr double kPartSeconds = 3.0;  // Fresh client threads this often.
constexpr size_t kBlockOps = 2000;    // Ops per end-to-end metric block.
constexpr size_t kMinBlocks = 5;

// Every per-layer metric the traced run reports. A layer the workload
// does not run reports 0.
const char* const kLayerMetrics[] = {
    "fastmap.embed_p50_us",
    "fastmap.embed_share",
    "engine.runone_p50_us",
    "engine.self_us",
    "engine.cache_hit_ratio",
    "engine.cache_insertions",
    "engine.cache_evictions",
    "semtree.knn_p50_us",
    "semtree.range_p50_us",
    "semtree.write_p50_us",
    "semtree.partitions_per_query",
    "semtree.truncated_frac",
    "cluster.msgs_per_op",
    "cluster.bytes_per_op",
    "cluster.remote_msgs_per_op",
    "cluster.forwards_per_op",
    "cluster.calls_per_op",
    "partition.dist_per_query",
    "partition.load_skew",
    "partition.routing_only",
    "rebalance.splits",
    "rebalance.merges",
    "rebalance.migrations",
    "rebalance.points_moved",
    "rebalance.tick_p50_us",
    "kdtree.knn_p50_us",
    "kdtree.points_examined_per_query",
    "kdtree.read_write_ratio",
    "op.throughput_qps",
    "op.p99_us",
    "op.range_p50_us",
    "op.write_p50_us",
    "trace.overhead_frac",
    "trace.op_self_share",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE [--spans FILE]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const char* flag = argv[i];
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || (a.trace != 0 && a.trace != 1)) {
        Usage("bad --trace");
      }
    } else if (std::strcmp(flag, "--out") == 0) {
      a.out = v;
    } else if (std::strcmp(flag, "--spans") == 0) {
      a.spans = v;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload.empty() || a.out.empty()) Usage("missing flag");
  return a;
}

// One op as its client saw it.
struct Sample {
  int64_t start_ns;
  float lat_us;
  OpType type;
};

// One closed-loop window: every client's op samples, its failures, and
// the spans of its sampled requests.
struct ClientLog {
  std::vector<Sample> samples;
  uint64_t failed = 0;
  std::string first_error;
  SpanLog spans;
};

struct Window {
  double seconds = 0.0;
  std::vector<ClientLog> clients;

  uint64_t Ops(const Workload& w, bool readers) const {
    uint64_t n = 0;
    for (size_t c = 0; c < clients.size(); ++c) {
      if (!(readers && w.is_writer(c))) n += clients[c].samples.size();
    }
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const ClientLog& c : clients) n += c.failed;
    return n;
  }
  double Qps(const Workload& w, bool readers = false) const {
    return seconds > 0.0 ? static_cast<double>(Ops(w, readers)) / seconds
                         : 0.0;
  }
  // Every client's samples, by start time.
  std::vector<Sample> Ordered() const {
    std::vector<Sample> all;
    for (const ClientLog& c : clients) {
      all.insert(all.end(), c.samples.begin(), c.samples.end());
    }
    std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
      return a.start_ns < b.start_ns;
    });
    return all;
  }
};

// Sorted latencies of `samples[lo, hi)` whose type is in `types`.
std::vector<double> Latencies(const std::vector<Sample>& samples, size_t lo,
                              size_t hi, std::initializer_list<OpType> types) {
  std::vector<double> out;
  for (size_t i = lo; i < hi; ++i) {
    if (std::find(types.begin(), types.end(), samples[i].type) !=
        types.end()) {
      out.push_back(samples[i].lat_us);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Drives the workload's clients for `seconds`, in consecutive parts of
// about kPartSeconds, each with fresh client threads: where the
// scheduler places a run's threads can hold its speed for seconds, and
// fresh threads re-draw that placement. Request ids are (client << 40)
// + the client's op counter, which runs on across windows.
Window RunWindow(Workload& w, double seconds, bool traced,
                 bool readers_only, std::vector<uint64_t>* next_request) {
  Window win;
  win.clients.resize(w.clients());
  const int parts = std::max(1, static_cast<int>(seconds / kPartSeconds));
  for (int part = 0; part < parts; ++part) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    const int64_t t0 = NowNs();
    for (size_t c = 0; c < w.clients(); ++c) {
      if (readers_only && w.is_writer(c)) continue;
      threads.emplace_back([&, c] {
        ClientLog& log = win.clients[c];
        uint64_t& counter = (*next_request)[c];
        for (;;) {
          w.Pace(c);
          if (stop.load(std::memory_order_relaxed)) break;
          const uint64_t request = (uint64_t{c} << 40) + counter++;
          SpanLog* spans =
              traced && request % kTraceEvery == 0 ? &log.spans : nullptr;
          semtree::Status st;
          const int64_t s0 = NowNs();
          OpType type;
          {
            ScopedSpan op(spans, kOp, request);
            type = w.Step(c, spans, &st);
          }
          log.samples.push_back(
              Sample{s0, static_cast<float>(Micros(NowNs() - s0)), type});
          if (!st.ok() && log.failed++ == 0) {
            log.first_error = st.ToString();
          }
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds / parts));
    stop.store(true);
    win.seconds += static_cast<double>(NowNs() - t0) / 1e9;
    for (std::thread& t : threads) t.join();
  }
  for (size_t c = 0; c < win.clients.size(); ++c) {
    if (win.clients[c].failed > 0) {
      std::fprintf(stderr, "perfbench: client %zu: %" PRIu64
                           " failed ops, first: %s\n",
                   c, win.clients[c].failed,
                   win.clients[c].first_error.c_str());
    }
  }
  return win;
}

// A window's figures from its ops in start order (`all`): each is the
// median over consecutive blocks of kBlockOps ops of that block's
// throughput, p50, p99 and k-NN p50. A block always holds enough
// samples for its p99 (ten beyond it). False when the window has too
// few blocks.
bool BlockMetrics(const std::vector<Sample>& all, Metrics* out,
                  size_t* blocks) {
  static_assert(kBlockOps >= 1000, "a block must support p99");
  std::vector<double> qps, p50, p99, knn;
  for (size_t lo = 0; lo + kBlockOps <= all.size(); lo += kBlockOps) {
    const size_t hi = lo + kBlockOps;
    const std::vector<double> a =
        Latencies(all, lo, hi, {kKnnOp, kRangeOp, kWriteOp});
    const std::vector<double> k = Latencies(all, lo, hi, {kKnnOp});
    const double span_s =
        static_cast<double>(all[hi - 1].start_ns - all[lo].start_ns) / 1e9;
    if (k.empty() || span_s <= 0.0) continue;
    qps.push_back(static_cast<double>(kBlockOps - 1) / span_s);
    p50.push_back(Percentile(a, kP50));
    p99.push_back(Percentile(a, kP99));
    knn.push_back(Percentile(k, kP50));
  }
  *blocks = qps.size();
  if (qps.size() < kMinBlocks) return false;
  (*out)["throughput_qps"] = Median(qps);
  (*out)["p50_us"] = Median(p50);
  (*out)["p99_us"] = Median(p99);
  (*out)["knn_p50_us"] = Median(knn);
  return true;
}

// Per-layer metrics read off the traced window's spans.
void SpanMetrics(const Window& traced, Metrics* m) {
  std::vector<double> embed, runone, self_share;
  double embed_ns = 0.0;
  double op_ns = 0.0;
  for (const ClientLog& c : traced.clients) {
    const std::vector<Span>& spans = c.spans.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const double d = static_cast<double>(spans[i].duration_ns());
      switch (spans[i].name) {
        case kOp:
          op_ns += d;
          if (d > 0) self_share.push_back(static_cast<double>(self[i]) / d);
          break;
        case kFastmapEmbed:
          embed_ns += d;
          embed.push_back(d / 1e3);
          break;
        case kEngineRunOne:
          runone.push_back(d / 1e3);
          break;
        default:
          break;
      }
    }
  }
  (*m)["fastmap.embed_p50_us"] = Median(embed);
  (*m)["fastmap.embed_share"] = op_ns > 0.0 ? embed_ns / op_ns : 0.0;
  (*m)["engine.runone_p50_us"] = Median(runone);
  (*m)["trace.op_self_share"] = Median(self_share);
}

bool WriteSpans(const std::string& path, const Window& traced,
                const SpanLog& pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\t"
               "msgs\tbytes\tremote_msgs\tforwards\tcalls\tpartitions\n");
  int64_t base = 0;
  auto dump = [&](const std::vector<Span>& spans) {
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\t%s\t%" PRId64
                   "\t%" PRId64 "\t%" PRId64,
                   s.request, base + static_cast<int64_t>(i),
                   s.parent < 0 ? int64_t{-1} : base + s.parent,
                   SpanNameString(s.name), s.start_ns, s.end_ns, self[i]);
      for (uint64_t v : s.counters) std::fprintf(f, "\t%" PRIu64, v);
      std::fputc('\n', f);
    }
    base += static_cast<int64_t>(spans.size());
  };
  for (const ClientLog& c : traced.clients) dump(c.spans.spans());
  dump(pass.spans());
  return std::fclose(f) == 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + Num(v);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) Usage("unknown workload");
  auto fail = [](const char* what, const semtree::Status& st) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    return 1;
  };

  semtree::Status st = w->Prepare();
  if (!st.ok()) return fail("prepare", st);
  // Set up at least kMinSetupReps times and for kMinSetupSeconds, so a
  // fast set-up still gets a median of many builds.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total < kMinSetupSeconds && setup_s.size() < kMaxSetupReps)) {
    const int64_t t0 = NowNs();
    st = w->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setup_s.back();
    if (!st.ok()) return fail("setup", st);
  }
  st = w->Start();
  if (!st.ok()) return fail("start", st);

  std::vector<uint64_t> next_request(w->clients(), 0);
  const double secs = args.seconds;
  const Window warmup =
      RunWindow(*w, kWarmupSeconds, false, false, &next_request);
  const Window main = RunWindow(*w, secs, false, false, &next_request);
  uint64_t attempted = warmup.Ops(*w, false) + main.Ops(*w, false);
  uint64_t op_failures = warmup.Failed() + main.Failed();
  const std::vector<Sample> ordered = main.Ordered();
  const std::vector<double> all =
      Latencies(ordered, 0, ordered.size(), {kKnnOp, kRangeOp, kWriteOp});
  const std::vector<double> knn =
      Latencies(ordered, 0, ordered.size(), {kKnnOp});

  Metrics metrics;
  Metrics samples;
  SpanLog pass_spans;
  Window traced;
  bool has_writer = false;
  for (size_t c = 0; c < w->clients(); ++c) has_writer |= w->is_writer(c);
  if (args.trace == 1) {
    for (const char* name : kLayerMetrics) metrics[name] = 0.0;
    const auto cache0 = w->engine().cache_stats();
    traced = RunWindow(*w, secs, true, false, &next_request);
    const auto cache1 = w->engine().cache_stats();
    attempted += traced.Ops(*w, false);
    op_failures += traced.Failed();
    SpanMetrics(traced, &metrics);
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double lookups =
        hits + static_cast<double>(cache1.misses - cache0.misses);
    metrics["engine.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    metrics["engine.cache_insertions"] =
        static_cast<double>(cache1.insertions - cache0.insertions);
    metrics["engine.cache_evictions"] =
        static_cast<double>(cache1.evictions - cache0.evictions);
    metrics["trace.overhead_frac"] = 1.0 - traced.Qps(*w) / main.Qps(*w);
    metrics["op.range_p50_us"] = Percentile(
        Latencies(ordered, 0, ordered.size(), {kRangeOp}), kP50);
    metrics["op.write_p50_us"] = Percentile(
        Latencies(ordered, 0, ordered.size(), {kWriteOp}), kP50);
    if (has_writer) {
      const Window readers = RunWindow(*w, secs, false, true, &next_request);
      attempted += readers.Ops(*w, true);
      op_failures += readers.Failed();
      metrics["kdtree.read_write_ratio"] =
          main.Qps(*w, true) / readers.Qps(*w, true);
    }
  }
  w->Stop();
  if (args.trace == 1) {
    Metrics layer;
    op_failures += w->LayerPass(&layer, &pass_spans);
    for (const Span& s : pass_spans.spans()) attempted += s.name == kOp;
    for (const auto& [name, value] : layer) {
      if (metrics.count(name) == 0) {
        std::fprintf(stderr, "perfbench: undeclared metric %s\n",
                     name.c_str());
        return 1;
      }
      metrics[name] = value;
    }
    if (!args.spans.empty() && !WriteSpans(args.spans, traced, pass_spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans.c_str());
      return 1;
    }
  }

  const CheckResult check = w->Check();
  attempted += check.checked;
  const uint64_t failed = op_failures + check.mismatches;
  const bool correct = failed == 0;

  // End-to-end metrics, always from the untraced window.
  const int tail = HighestSupportedPercentile(all.size());
  Metrics e2e;
  size_t blocks = 0;
  if (!BlockMetrics(ordered, &e2e, &blocks)) {
    std::fprintf(stderr,
                 "perfbench: %zu ops make %zu blocks of %zu, fewer than %zu\n",
                 all.size(), blocks, kBlockOps, kMinBlocks);
    return 1;
  }
  // Ops/s and p99 move with how fast the host wakes idle cores, far
  // more than the medians do, so they are per-layer figures of the
  // traced run rather than bounded end-to-end metrics.
  if (args.trace == 0) {
    metrics["p50_us"] = e2e["p50_us"];
    metrics["knn_p50_us"] = e2e["knn_p50_us"];
    metrics["setup_s"] = Median(setup_s);
  } else {
    metrics["op.throughput_qps"] = e2e["throughput_qps"];
    metrics["op.p99_us"] = e2e["p99_us"];
  }
  Metrics pooled;
  pooled["throughput_qps"] = main.Qps(*w);
  pooled["p50_us"] = Percentile(all, kP50);
  pooled["p99_us"] = Percentile(all, kP99);
  pooled["knn_p50_us"] = Percentile(knn, kP50);
  samples["p50_us"] = static_cast<double>(all.size());
  samples["op.p99_us"] = static_cast<double>(all.size());
  samples["knn_p50_us"] = static_cast<double>(knn.size());
  samples["setup_s"] = static_cast<double>(setup_s.size());

  Metrics config = w->Config();
  config["seed"] = static_cast<double>(args.seed);
  config["seconds"] = secs;
  config["warmup_s"] = kWarmupSeconds;
  config["setup_reps"] = static_cast<double>(setup_s.size());
  config["block_ops"] = static_cast<double>(kBlockOps);
  config["blocks"] = static_cast<double>(blocks);
  config["trace"] = args.trace;
  config["trace_sample_every"] = static_cast<double>(kTraceEvery);
  config["hardware_threads"] = std::thread::hardware_concurrency();

  std::string json = "{\n";
  json += "  \"workload\": \"" + args.workload + "\",\n";
  json += "  \"correct\": " + std::string(correct ? "true" : "false") + ",\n";
  json += "  \"attempted\": " + Num(static_cast<double>(attempted)) + ",\n";
  json += "  \"failed\": " + Num(static_cast<double>(failed)) + ",\n";
  json += "  \"op_failures\": " + Num(static_cast<double>(op_failures)) +
          ",\n";
  json += "  \"mismatches\": " + Num(static_cast<double>(check.mismatches)) +
          ",\n";
  json += "  \"checked\": " + Num(static_cast<double>(check.checked)) + ",\n";
  json += "  \"tail\": {\"percentile\": " + Num(tail / 100.0) +
          ", \"value_us\": " + Num(Percentile(all, tail)) +
          ", \"samples\": " + Num(static_cast<double>(all.size())) + "},\n";
  json += "  \"samples\": " + Object(samples) + ",\n";
  json += "  \"pooled\": " + Object(pooled) + ",\n";
  json += "  \"config\": " + Object(config) + ",\n";
  json += "  \"metrics\": " + Object(metrics) + "\n}\n";
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: %" PRIu64 " failed ops, %" PRIu64
                 " answers differ from the linear scan\n",
                 op_failures, check.mismatches);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
