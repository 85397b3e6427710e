// Copyright 2026 The SemTree Authors
//
// The simulated cluster: owns compute nodes, routes messages between
// them with an injectable latency/bandwidth model, and provides a
// request/response (RPC) layer on top of one-way messages. This stands
// in for the paper's MPJ deployment on an 8-processor cluster; the
// SemTree protocol code is identical either way (see DESIGN.md §2).

#ifndef SEMTREE_CLUSTER_CLUSTER_H_
#define SEMTREE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "cluster/compute_node.h"
#include "cluster/message.h"
#include "common/mutex.h"
#include "common/result.h"

namespace semtree {

struct ClusterOptions {
  /// One-way delivery latency applied to every message.
  std::chrono::microseconds latency{0};

  /// Payload bandwidth in bytes per microsecond; 0 means infinite.
  double bandwidth_bytes_per_us = 0.0;
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
/// Send/Call/Respond.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates a node; the caller registers handlers and then calls
  /// ComputeNode::Start().
  ComputeNode* AddNode();

  ComputeNode* node(NodeId id) const;
  size_t NodeCount() const;

  /// One-way message.
  void Send(NodeId target, uint32_t type, Payload payload,
            size_t approx_bytes = 64, NodeId from = kClientNode);

  /// RPC: sends a request and returns a future resolved by the
  /// handler's Respond (possibly after forwarding). The future holds a
  /// null Payload if the cluster shuts down first or no node takes the
  /// request.
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
  /// (SemTree's search loop, snapshot save). The node workers run every
  /// call but the last, in parallel; outside a handler the calling
  /// thread runs the last one itself when its node is idle
  /// (compute_node.h). Waiting on the futures belongs to the caller; a
  /// handler that waited on them would hold its node until they answer.
  std::vector<std::future<Payload>> CallAll(std::vector<OutboundCall> calls,
                                            NodeId from = kClientNode);

  /// Blocking RPC convenience; surfaces shutdown, or a target that
  /// does not exist, as Unavailable. Outside a handler the calling
  /// thread runs the target itself when it is idle (compute_node.h).
  Result<Payload> CallAndWait(NodeId target, uint32_t type,
                              Payload payload, size_t approx_bytes = 64,
                              NodeId from = kClientNode);

  /// Re-targets an in-flight request to another node, preserving its
  /// correlation id so the eventual Respond still reaches the original
  /// caller (used by the insertion protocol: "a message containing the
  /// point to be added has to be sent to the correct partition"). From
  /// inside a handler, an idle target runs on the forwarding thread
  /// once the handler has returned (compute_node.h).
  void Forward(const Message& request, NodeId new_target, NodeId from);

  /// Answers a request; resolves the caller's future.
  void Respond(const Message& request, Payload payload,
               size_t approx_bytes = 64);

  /// Stops all nodes and the network thread; resolves outstanding
  /// calls with null payloads. Idempotent; called by the destructor.
  void Shutdown();

  ClusterStats Stats() const;
  const ClusterOptions& options() const { return options_; }

 private:
  // Responses travel as messages with this reserved type and are routed
  // to the pending-call registry instead of a node.
  static constexpr uint32_t kResponseType = 0xFFFFFFFFu;

  // `claim`: an idle target may be claimed for the calling thread
  // (ComputeNode::Deliver); only deliveries made without the latency
  // model's network thread can be.
  std::future<Payload> StartCall(NodeId target, uint32_t type,
                                 Payload payload, size_t approx_bytes,
                                 NodeId from, bool claim);
  void Route(Message msg, bool claim);
  void DeliverNow(Message&& msg, bool claim);
  // Resolves an in-flight RPC; false if it is not pending.
  bool Resolve(uint64_t correlation, Payload payload);
  void NetworkLoop();
  std::chrono::steady_clock::time_point DeliveryTime(size_t bytes) const;
  void Account(const Message& msg);

  ClusterOptions options_;

  // Guards the node registry only; nodes are append-only and the
  // pointers handed out stay valid for the cluster's lifetime.
  mutable Mutex nodes_mu_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_ GUARDED_BY(nodes_mu_);

  // In-flight RPCs by correlation id. Promises are *moved out* under
  // the lock and resolved outside it, so a continuation running on the
  // resolving thread cannot re-enter the registry while it is held.
  Mutex pending_mu_;
  std::map<uint64_t, std::promise<Payload>> pending_
      GUARDED_BY(pending_mu_);
  std::atomic<uint64_t> next_correlation_{1};

  // Delayed-delivery machinery (only engaged when latency/bandwidth
  // model a non-zero delay).
  struct Scheduled {
    std::chrono::steady_clock::time_point at;
    uint64_t seq;  // FIFO tie-break.
    Message msg;
    bool operator>(const Scheduled& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  Mutex net_mu_;
  CondVar net_cv_;  // Wakes the network thread: new message or shutdown.
  std::priority_queue<Scheduled, std::vector<Scheduled>,
                      std::greater<Scheduled>>
      net_queue_ GUARDED_BY(net_mu_);
  // Only touched by the constructor and Shutdown (serialized through
  // is_shutdown_), never by the network thread itself.
  std::thread net_thread_;
  uint64_t net_seq_ GUARDED_BY(net_mu_) = 0;
  bool net_running_ GUARDED_BY(net_mu_) = false;
  bool shutdown_ GUARDED_BY(net_mu_) = false;
  std::atomic<bool> is_shutdown_{false};

  mutable Mutex stats_mu_;
  ClusterStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_CLUSTER_H_
