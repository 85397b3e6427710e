// Copyright 2026 The SemTree Authors
//
// A simulated compute node: a FIFO message queue plus a running flag,
// dispatching every message to the one handler it was built with. One
// SemTree partition lives on one compute node (paper §III-B:
// partitions are "usually managed by a single compute node").

#ifndef SEMTREE_CLUSTER_COMPUTE_NODE_H_
#define SEMTREE_CLUSTER_COMPUTE_NODE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <thread>

#include "cluster/message.h"
#include "common/mutex.h"

namespace semtree {

/// One node of the simulated cluster.
///
/// Whichever thread holds the node's running flag runs its handler,
/// one message at a time in queue order, and drains the queue before it
/// releases the flag, so all state owned by the node (e.g. its
/// partition) is mutated serially without locks. That thread is the
/// node's worker, or a sender that claimed the idle node (Deliver with
/// `claim`): a sender about to wait runs it at once, and a handler's
/// Forward runs it on the same thread after the handler returns. No
/// handler runs inside another handler's stack frame (DESIGN.md §2).
///
/// A handler that waits on a nested Cluster::Call holds this node until
/// the callee answers, so such waits must never form a cycle. SemTree
/// keeps exactly one: build-partition waits on bulk-build calls to
/// freshly created partitions, whose handler calls nobody; a call from
/// inside a handler runs on the callee's worker. Searches forward their
/// work item or hand subtrees back to the caller, and never wait.
class ComputeNode {
 public:
  /// Runs every message the node receives, whatever its type.
  using Handler = std::function<void(const Message&)>;

  /// Starts the node's worker at once.
  ComputeNode(NodeId id, Handler handler);
  ~ComputeNode();

  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  NodeId id() const { return id_; }

  /// Refuses further messages, then joins the worker once every
  /// message queued before the call has run and no thread runs the
  /// node. Idempotent.
  void Stop();

  /// Queues a message for this node; false (and the message dropped)
  /// after Stop(). With `claim`, an idle node is claimed for the
  /// calling thread unless it already holds a claim, and the thread's
  /// outermost loop (RunClaimed) runs it. Otherwise the node's current
  /// thread or its worker runs the message.
  bool Deliver(Message msg, bool claim);

  /// Runs the node this thread claimed through Deliver, if any, and
  /// the nodes its handlers forward to, one at a time. Called outside
  /// any handler.
  static void RunClaimed();

  /// Whether the calling thread is running a handler.
  static bool InHandler();

  /// Messages dispatched to a handler so far (for stats). A message is
  /// counted before its handler runs, so a caller whose call has been
  /// answered always sees it counted.
  uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();
  // Runs queued messages on the calling thread, which holds the
  // running flag, until the queue is empty or a handler claimed
  // another node; then releases the flag.
  void Drain();
  void Dispatch(const Message& msg);

  const NodeId id_;
  // Deliberately lock-free by *confinement*, not by accident:
  //  - handler_ is fixed at construction, before any thread can reach
  //    the node, and never written again.
  //  - State the handler captures (a SemTree partition) is touched
  //    only by the thread holding running_, and mu_ orders
  //    consecutive holders.
  // Anything that breaks either rule must grow a Mutex here.
  const Handler handler_;
  Mutex mu_;  // Orders consecutive holders of running_.
  CondVar cv_;  // Wakes the worker: work for it, or stop.
  std::deque<Message> queue_ GUARDED_BY(mu_);
  bool running_ GUARDED_BY(mu_) = false;  // A thread is draining queue_.
  bool stopped_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> processed_{0};
  // Last: the worker starts once every other member is initialized.
  std::thread worker_;
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_COMPUTE_NODE_H_
