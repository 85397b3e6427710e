// Copyright 2026 The SemTree Authors
//
// A simulated compute node: a FIFO message queue plus a running flag,
// dispatching every message to the one handler it was built with. One
// SemTree partition lives on one compute node (paper §III-B:
// partitions are "usually managed by a single compute node"). A node
// owns no thread: the cluster's pool, or a caller, runs it.

#ifndef SEMTREE_CLUSTER_COMPUTE_NODE_H_
#define SEMTREE_CLUSTER_COMPUTE_NODE_H_

#include <atomic>
#include <deque>
#include <functional>

#include "cluster/message.h"
#include "common/mutex.h"

namespace semtree {

class ThreadPool;

/// One node of the simulated cluster.
///
/// Whichever thread holds the node's running flag runs its handler,
/// one message at a time in queue order, and drains the queue before it
/// releases the flag, so all state owned by the node (e.g. its
/// partition) is mutated serially without locks. That thread is a
/// thread of the cluster's pool, or a sender that claimed the idle node
/// (Deliver with `claim`): a sender about to wait runs it at once, and
/// a handler's Forward runs it on the same thread after the handler
/// returns. No handler runs inside another handler's stack frame
/// (DESIGN.md §2).
///
/// A pool thread runs handlers only, so no handler may wait on another
/// node: a waiting handler could hold every pool thread while the nodes
/// it waits on sit queued behind it. Cluster::CallAndWait refuses a call
/// from inside a handler; searches forward their work item or hand
/// subtrees back to the caller, and build-partition ships its moved
/// leaves without waiting.
class ComputeNode {
 public:
  /// Runs every message the node receives, whatever its type.
  using Handler = std::function<void(const Message&)>;

  /// `pool` runs the node whenever no sender claims it; it must
  /// outlive the node.
  ComputeNode(NodeId id, Handler handler, ThreadPool* pool);
  ~ComputeNode();

  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  NodeId id() const { return id_; }

  /// Refuses further messages, then returns once every message queued
  /// before the call has run, no thread runs the node and no pool task
  /// for it is pending. Idempotent.
  void Stop();

  /// Queues a message for this node; false (and the message dropped)
  /// after Stop(). With `claim`, an idle node is claimed for the
  /// calling thread unless it already holds a claim, and the thread's
  /// outermost loop (RunClaimed) runs it. Otherwise an idle node goes
  /// to the pool, and a busy one's current thread runs the message.
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
  // Has a pool thread drain the node unless a sender claims it first;
  // the caller set scheduled_ for it.
  void Schedule();
  // Runs queued messages on the calling thread, which holds the
  // running flag, until the queue is empty or a handler claimed another
  // node; then releases the flag, scheduling the node if work is left.
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
  ThreadPool* const pool_;
  Mutex mu_;  // Orders consecutive holders of running_.
  CondVar released_;  // Wakes Stop: running_ or scheduled_ was cleared.
  std::deque<Message> queue_ GUARDED_BY(mu_);
  // A thread drains queue_, or a pool task will (or finds it claimed):
  // one of the two is set whenever queue_ is not empty.
  bool running_ GUARDED_BY(mu_) = false;
  bool scheduled_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> processed_{0};
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_COMPUTE_NODE_H_
