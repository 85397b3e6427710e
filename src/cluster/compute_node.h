// Copyright 2026 The SemTree Authors
//
// A simulated compute node: a mailbox plus a worker thread dispatching
// messages to registered handlers. One SemTree partition lives on one
// compute node (paper §III-B: partitions are "usually managed by a
// single compute node").

#ifndef SEMTREE_CLUSTER_COMPUTE_NODE_H_
#define SEMTREE_CLUSTER_COMPUTE_NODE_H_

#include <atomic>
#include <functional>
#include <thread>
#include <unordered_map>

#include "cluster/mailbox.h"
#include "cluster/message.h"

namespace semtree {

class Cluster;

/// One node of the simulated cluster.
///
/// Handlers run on the node's single worker thread, so all state owned
/// by the node (e.g. its partition) is mutated serially without locks.
/// A handler that waits on a nested Cluster::Call parks this worker
/// until the callee answers, so such waits must never form a cycle.
/// SemTree keeps exactly one: build-partition waits on bulk-build calls
/// to freshly created partitions, whose handler calls nobody. Searches
/// forward their work item or hand subtrees back to the caller, and
/// never wait.
class ComputeNode {
 public:
  using Handler = std::function<void(const Message&)>;

  ComputeNode(NodeId id, Cluster* cluster);
  ~ComputeNode();

  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  NodeId id() const { return id_; }

  /// Registers the handler for a message type. Must happen before
  /// Start(); one handler per type.
  void RegisterHandler(uint32_t type, Handler handler);

  /// Spawns the worker thread.
  void Start();

  /// Closes the mailbox and joins the worker. Idempotent.
  void Stop();

  /// Enqueues a message for this node (called by the Cluster).
  void Deliver(Message msg);

  /// Messages dispatched to a handler so far (for stats). A message is
  /// counted before its handler runs, so a caller whose call has been
  /// answered always sees it counted.
  uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  NodeId id_;
  Cluster* cluster_;
  Mailbox mailbox_;  // Internally synchronized; the only cross-thread door.
  // Deliberately lock-free by *confinement*, not by accident:
  //  - handlers_ and started_ are written only before Start() spawns the
  //    worker (RegisterHandler documents the contract) and read-only
  //    afterwards; the thread constructor's synchronizes-with edge
  //    publishes them to the worker.
  //  - Partition state captured by the handlers is touched only from
  //    WorkerLoop, which drains the mailbox serially.
  // Anything that breaks either rule must grow a Mutex here.
  std::unordered_map<uint32_t, Handler> handlers_;
  std::thread worker_;
  std::atomic<uint64_t> processed_{0};
  bool started_ = false;
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_COMPUTE_NODE_H_
