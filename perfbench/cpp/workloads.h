// Copyright 2026 The SemTree Authors
//
// The benchmark's workloads behind one closed-loop interface. The
// runner (main.cc) builds a workload, times its set-up, drives its
// clients, and asks it to check its answers and to run a single-client
// pass over its layers. A workload touches the system only through
// public functions: SemanticIndex::Embed, QueryEngine, SemTree and
// SpatialIndex.

#ifndef SEMTREE_PERFBENCH_WORKLOADS_H_
#define SEMTREE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/query_engine.h"
#include "measure.h"

namespace perfbench {

enum OpType : uint8_t { kKnnOp = 0, kRangeOp = 1, kWriteOp = 2 };
constexpr size_t kNumOpTypes = 3;

/// Name → value, in name order (metrics and the config record).
using Metrics = std::map<std::string, double>;

struct CheckResult {
  uint64_t checked = 0;     ///< Answers compared (plus structural checks).
  uint64_t mismatches = 0;  ///< Answers that differed from the scan.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from the seed. Not timed.
  virtual semtree::Status Prepare() = 0;

  /// Builds the index from the prepared inputs, replacing any earlier
  /// build; timed as setup_s. The last build serves the run.
  virtual semtree::Status Setup() = 0;

  /// Starts and stops background machinery around the traffic.
  virtual semtree::Status Start() { return semtree::Status::OK(); }
  virtual void Stop() {}

  /// Closed-loop client threads (writers included).
  virtual size_t clients() const = 0;
  virtual bool is_writer(size_t /*client*/) const { return false; }

  /// Blocks until a paced client's next op is due; outside the op time.
  virtual void Pace(size_t /*client*/) {}

  /// Runs client `client`'s next op; only that client's thread calls
  /// it. `trace` is non-null when this request is sampled, with its op
  /// span open.
  virtual OpType Step(size_t client, SpanLog* trace,
                      semtree::Status* status) = 0;

  /// Compares sampled exact answers with a linear scan over the live
  /// point set. Called once traffic has stopped.
  virtual CheckResult Check() = 0;

  /// Single-client pass timing direct calls into each layer; fills the
  /// layer's per-layer metrics and returns the number of failed calls.
  virtual uint64_t LayerPass(Metrics* out, SpanLog* log) = 0;

  virtual semtree::QueryEngine& engine() = 0;

  /// Corpus size, partitions, clients and other sizes of this workload.
  virtual Metrics Config() const = 0;
};

/// Names of the workloads, in the order the benchmark runs them.
const std::vector<std::string>& WorkloadNames();

/// A fresh workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // SEMTREE_PERFBENCH_WORKLOADS_H_
