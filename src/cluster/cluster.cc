// Copyright 2026 The SemTree Authors

#include "cluster/cluster.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace semtree {

Cluster::Cluster(ClusterOptions options)
    : latency_(options.latency),
      pool_(std::max(1u, std::thread::hardware_concurrency())) {
  if (latency_.count() > 0) {
    net_running_ = true;
    net_thread_ = std::thread([this]() { NetworkLoop(); });
  }
}

Cluster::~Cluster() { Shutdown(); }

ComputeNode* Cluster::AddNode(ComputeNode::Handler handler) {
  MutexLock lock(nodes_mu_);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<ComputeNode>(id, std::move(handler), &pool_));
  return nodes_.back().get();
}

ComputeNode* Cluster::node(NodeId id) const {
  MutexLock lock(nodes_mu_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<size_t>(id)].get();
}

void Cluster::Account(const Message& msg) {
  MutexLock lock(stats_mu_);
  ++stats_.messages;
  stats_.bytes += msg.approx_bytes;
  if (msg.from != msg.to) ++stats_.remote_messages;
}

std::future<Payload> Cluster::Call(NodeId target, uint32_t type,
                                   Payload payload, size_t approx_bytes,
                                   NodeId from) {
  return StartCall(target, type, std::move(payload), approx_bytes, from,
                   /*claim=*/false);
}

std::future<Payload> Cluster::StartCall(NodeId target, uint32_t type,
                                        Payload payload,
                                        size_t approx_bytes, NodeId from,
                                        bool claim) {
  if (is_shutdown_.load(std::memory_order_acquire)) {
    std::promise<Payload> dead;
    dead.set_value(nullptr);
    return dead.get_future();
  }
  {
    MutexLock lock(stats_mu_);
    ++stats_.calls;
  }
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = target;
  msg.payload = std::move(payload);
  msg.approx_bytes = approx_bytes;
  msg.reply = std::make_shared<Reply>();
  std::future<Payload> future = msg.reply->Future();
  Route(std::move(msg), claim);
  return future;
}

std::vector<std::future<Payload>> Cluster::CallAll(
    std::vector<OutboundCall> calls, NodeId from) {
  // A handler must not run another node in its own stack frame.
  const bool run_here = !ComputeNode::InHandler();
  std::vector<std::future<Payload>> futures;
  futures.reserve(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    OutboundCall& c = calls[i];
    futures.push_back(StartCall(c.target, c.type, std::move(c.payload),
                                c.approx_bytes, from,
                                run_here && i + 1 == calls.size()));
  }
  if (run_here) ComputeNode::RunClaimed();
  return futures;
}

Result<Payload> Cluster::CallAndWait(NodeId target, uint32_t type,
                                     Payload payload, size_t approx_bytes,
                                     NodeId from) {
  if (ComputeNode::InHandler()) {
    return Status::FailedPrecondition(
        "a handler must not wait on another node");
  }
  std::future<Payload> future = StartCall(
      target, type, std::move(payload), approx_bytes, from, /*claim=*/true);
  ComputeNode::RunClaimed();
  Payload response = future.get();  // Never throws: the Reply always sets.
  if (response == nullptr) {
    return Status::Unavailable("cluster shut down or nobody answered");
  }
  return response;
}

void Cluster::Forward(const Message& request, NodeId new_target,
                      NodeId from) {
  {
    MutexLock lock(stats_mu_);
    ++stats_.forwards;
  }
  Message msg = request;  // Payload and Reply shared.
  msg.from = from;
  msg.to = new_target;
  Route(std::move(msg), /*claim=*/ComputeNode::InHandler());
}

void Cluster::Respond(const Message& request, Payload payload,
                      size_t approx_bytes) {
  if (request.reply == nullptr) return;  // Nobody waits: nothing to do.
  Message msg;
  msg.type = kResponseType;
  msg.from = request.to;
  msg.to = request.from;
  msg.payload = std::move(payload);
  msg.approx_bytes = approx_bytes;
  msg.reply = request.reply;
  Route(std::move(msg), /*claim=*/false);
}

void Cluster::Route(Message msg, bool claim) {
  Account(msg);
  bool delayed;
  {
    MutexLock lock(net_mu_);
    delayed = net_running_;
    if (delayed) {
      net_queue_.push_back(Scheduled{
          std::chrono::steady_clock::now() + latency_, std::move(msg)});
    }
  }
  if (delayed) {
    net_cv_.NotifyOne();
  } else {
    // The move into net_queue_ above happens only when `delayed`; the
    // CFG path from it to here is infeasible.
    DeliverNow(std::move(msg), claim);  // NOLINT(bugprone-use-after-move)
  }
}

void Cluster::DeliverNow(Message&& msg, bool claim) {
  if (msg.type == kResponseType) {
    msg.reply->Set(std::move(msg.payload));
    return;
  }
  // A message no node takes is dropped here; once its last copy is
  // gone, its Reply resolves the call with a null payload.
  ComputeNode* target = node(msg.to);
  if (target == nullptr) {
    SEMTREE_LOG(Warning) << "message to unknown node " << msg.to;
    return;
  }
  target->Deliver(std::move(msg), claim);
}

void Cluster::NetworkLoop() {
  // Hand-over-hand locking (the analysis tracks the explicit
  // Lock/Unlock pairs): the loop body runs locked; delivery and the
  // near-deadline spin drop the lock and re-take it before looping.
  net_mu_.Lock();
  for (;;) {
    if (net_queue_.empty()) {
      if (shutdown_) break;
      net_cv_.Wait(net_mu_);
      continue;
    }
    auto at = net_queue_.front().at;
    auto now = std::chrono::steady_clock::now();
    if (now < at) {
      // OS timer granularity (tens of microseconds) would inflate
      // sub-100us latencies; spin for near deadlines, sleep for far
      // ones. Spinning can drop the lock: later sends carry later
      // deadlines, so the front stays the earliest message.
      if (at - now < std::chrono::microseconds(200)) {
        net_mu_.Unlock();
        while (std::chrono::steady_clock::now() < at) {
          std::this_thread::yield();
        }
        net_mu_.Lock();
      } else {
        net_cv_.WaitUntil(net_mu_, at);
      }
      continue;
    }
    Message msg = std::move(net_queue_.front().msg);
    net_queue_.pop_front();
    net_mu_.Unlock();
    DeliverNow(std::move(msg), /*claim=*/false);
    net_mu_.Lock();
  }
  net_mu_.Unlock();
}

ClusterStats Cluster::Stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

void Cluster::Shutdown() {
  if (is_shutdown_.exchange(true)) return;
  // Stop the network thread first so no new deliveries race the node
  // teardown; it drains whatever is already queued before exiting.
  {
    MutexLock lock(net_mu_);
    shutdown_ = true;
  }
  net_cv_.NotifyAll();
  if (net_thread_.joinable()) {
    net_thread_.join();
    // Under the lock: a late Route (e.g. a handler mid-Respond during
    // teardown) reads net_running_ under net_mu_ and must see false so
    // it delivers inline instead of queueing to the dead thread.
    MutexLock lock(net_mu_);
    net_running_ = false;
  }
  // The pool runs what each node has queued. Calls made from here on
  // resolve at once.
  std::vector<ComputeNode*> nodes;
  {
    MutexLock lock(nodes_mu_);
    for (auto& n : nodes_) nodes.push_back(n.get());
  }
  for (ComputeNode* n : nodes) n->Stop();
}

}  // namespace semtree
