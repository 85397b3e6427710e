// Copyright 2026 The SemTree Authors
//
// The simulated cluster: owns compute nodes and the one thread pool
// that runs them, routes messages between them with an injectable
// latency, and provides request/response calls (RPC) with forwarding.
// This stands in for the paper's MPJ deployment on an 8-processor
// cluster; the SemTree protocol code is identical either way (see
// DESIGN.md §2).

#ifndef SEMTREE_CLUSTER_CLUSTER_H_
#define SEMTREE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/compute_node.h"
#include "cluster/message.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace semtree {

struct ClusterOptions {
  /// One-way delivery latency applied to every message.
  std::chrono::microseconds latency{0};
};

/// Aggregate interconnect statistics.
struct ClusterStats {
  uint64_t messages = 0;         ///< All messages (requests + responses).
  uint64_t bytes = 0;            ///< Sum of approx_bytes.
  uint64_t remote_messages = 0;  ///< Messages whose from != to.
  uint64_t calls = 0;            ///< RPCs issued.
  uint64_t forwards = 0;         ///< Requests re-targeted mid-flight.
};

/// The in-process cluster simulator.
///
/// Thread-safe: nodes can be added while the cluster runs (SemTree's
/// build-partition allocates partitions at runtime), and any thread may
/// Call/Forward/Respond. Its threads are one pool of
/// max(1, hardware_concurrency()) threads, however many nodes it has,
/// plus the network thread when a latency is set.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates a node, with the next id, that runs `handler` for every
  /// message it receives. It starts no thread: the pool runs it.
  ComputeNode* AddNode(ComputeNode::Handler handler);

  /// RPC: sends a request and returns a future resolved by the
  /// handler's Respond (possibly after forwarding). The future holds a
  /// null Payload if the cluster has shut down, or once the request's
  /// last copy is gone unanswered (no node took it, or its handler did
  /// not respond).
  std::future<Payload> Call(NodeId target, uint32_t type, Payload payload,
                            size_t approx_bytes = 64,
                            NodeId from = kClientNode);

  /// One outbound RPC of a fan-out round (see CallAll).
  struct OutboundCall {
    NodeId target = kClientNode;
    uint32_t type = 0;
    Payload payload;
    size_t approx_bytes = 64;
  };

  /// Issues one RPC per entry and returns the futures in order: the
  /// fan-out primitive of a client that keeps many requests in flight
  /// (SemTree's search loop, snapshot save). The pool runs every call
  /// but the last, in parallel; outside a handler the calling thread
  /// runs the last one itself when its node is idle (compute_node.h).
  /// Waiting on the futures belongs to the caller; a handler must not
  /// wait on them (compute_node.h).
  std::vector<std::future<Payload>> CallAll(std::vector<OutboundCall> calls,
                                            NodeId from = kClientNode);

  /// Blocking RPC convenience; surfaces shutdown, or a request nobody
  /// answered (Call), as Unavailable. The calling thread runs the
  /// target itself when it is idle (compute_node.h). From inside a
  /// handler it sends nothing and fails with FailedPrecondition: a
  /// handler must not wait on another node.
  Result<Payload> CallAndWait(NodeId target, uint32_t type,
                              Payload payload, size_t approx_bytes = 64,
                              NodeId from = kClientNode);

  /// Re-targets an in-flight request to another node. The copy shares
  /// the request's Reply, so the eventual Respond still reaches the
  /// original caller (used by the insertion protocol: "a message
  /// containing the point to be added has to be sent to the correct
  /// partition"). From inside a handler, an idle target runs on the
  /// forwarding thread once the handler has returned (compute_node.h).
  void Forward(const Message& request, NodeId new_target, NodeId from);

  /// Answers a request: its Reply resolves the caller's future. Does
  /// nothing for a message without one.
  void Respond(const Message& request, Payload payload,
               size_t approx_bytes = 64);

  /// Stops the network thread, then every node once it has run the
  /// messages already queued. Calls made afterwards resolve at once
  /// with null payloads. The pool lives until the destructor, which
  /// destroys the nodes first. Idempotent; called by the destructor.
  void Shutdown();

  ClusterStats Stats() const;

 private:
  // Responses travel as messages with this reserved type and resolve
  // their Reply instead of reaching a node.
  static constexpr uint32_t kResponseType = 0xFFFFFFFFu;

  ComputeNode* node(NodeId id) const;
  // `claim`: an idle target may be claimed for the calling thread
  // (ComputeNode::Deliver); only deliveries made without the latency
  // model's network thread can be.
  std::future<Payload> StartCall(NodeId target, uint32_t type,
                                 Payload payload, size_t approx_bytes,
                                 NodeId from, bool claim);
  void Route(Message msg, bool claim);
  void DeliverNow(Message&& msg, bool claim);
  void NetworkLoop();
  void Account(const Message& msg);

  const std::chrono::microseconds latency_;

  // Runs every node no sender claimed. Declared before nodes_, so that
  // it outlives them.
  ThreadPool pool_;

  // Guards the node registry only; nodes are append-only and the
  // pointers handed out stay valid for the cluster's lifetime.
  mutable Mutex nodes_mu_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_ GUARDED_BY(nodes_mu_);

  // Delayed delivery, engaged only with a non-zero latency. Route
  // stamps each message under net_mu_ with the one latency, so
  // deadlines rise in queue order and the queue is FIFO.
  struct Scheduled {
    std::chrono::steady_clock::time_point at;
    Message msg;
  };
  Mutex net_mu_;
  CondVar net_cv_;  // Wakes the network thread: new message or shutdown.
  std::deque<Scheduled> net_queue_ GUARDED_BY(net_mu_);
  // Only touched by the constructor and Shutdown (serialized through
  // is_shutdown_), never by the network thread itself.
  std::thread net_thread_;
  bool net_running_ GUARDED_BY(net_mu_) = false;
  bool shutdown_ GUARDED_BY(net_mu_) = false;
  std::atomic<bool> is_shutdown_{false};

  mutable Mutex stats_mu_;
  ClusterStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_CLUSTER_H_
