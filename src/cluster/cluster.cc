// Copyright 2026 The SemTree Authors

#include "cluster/cluster.h"

#include <thread>

#include "common/logging.h"

namespace semtree {

Cluster::Cluster(ClusterOptions options) : options_(options) {
  const bool delayed = options_.latency.count() > 0 ||
                       options_.bandwidth_bytes_per_us > 0.0;
  if (delayed) {
    net_running_ = true;
    net_thread_ = std::thread([this]() { NetworkLoop(); });
  }
}

Cluster::~Cluster() { Shutdown(); }

ComputeNode* Cluster::AddNode() {
  MutexLock lock(nodes_mu_);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<ComputeNode>(id));
  return nodes_.back().get();
}

ComputeNode* Cluster::node(NodeId id) const {
  MutexLock lock(nodes_mu_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return nullptr;
  return nodes_[static_cast<size_t>(id)].get();
}

size_t Cluster::NodeCount() const {
  MutexLock lock(nodes_mu_);
  return nodes_.size();
}

std::chrono::steady_clock::time_point Cluster::DeliveryTime(
    size_t bytes) const {
  auto now = std::chrono::steady_clock::now();
  auto delay = options_.latency;
  if (options_.bandwidth_bytes_per_us > 0.0) {
    delay += std::chrono::microseconds(static_cast<int64_t>(
        static_cast<double>(bytes) / options_.bandwidth_bytes_per_us));
  }
  return now + delay;
}

void Cluster::Account(const Message& msg) {
  MutexLock lock(stats_mu_);
  ++stats_.messages;
  stats_.bytes += msg.approx_bytes;
  if (msg.from != msg.to) ++stats_.remote_messages;
}

void Cluster::Send(NodeId target, uint32_t type, Payload payload,
                   size_t approx_bytes, NodeId from) {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = target;
  msg.payload = std::move(payload);
  msg.approx_bytes = approx_bytes;
  msg.deliver_at = DeliveryTime(approx_bytes);
  Route(std::move(msg), /*claim=*/false);
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
  uint64_t correlation =
      next_correlation_.fetch_add(1, std::memory_order_relaxed);
  std::future<Payload> future;
  {
    MutexLock lock(pending_mu_);
    future = pending_[correlation].get_future();
  }
  {
    MutexLock lock(stats_mu_);
    ++stats_.calls;
  }
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = target;
  msg.correlation_id = correlation;
  msg.payload = std::move(payload);
  msg.approx_bytes = approx_bytes;
  msg.deliver_at = DeliveryTime(approx_bytes);
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
  const bool run_here = !ComputeNode::InHandler();
  std::future<Payload> future = StartCall(
      target, type, std::move(payload), approx_bytes, from, run_here);
  if (run_here) ComputeNode::RunClaimed();
  Payload response = future.get();  // Never throws: promise always set.
  if (response == nullptr) {
    return Status::Unavailable("cluster shut down or target unknown");
  }
  return response;
}

void Cluster::Forward(const Message& request, NodeId new_target,
                      NodeId from) {
  {
    MutexLock lock(stats_mu_);
    ++stats_.forwards;
  }
  Message msg = request;  // Payload shared; correlation preserved.
  msg.from = from;
  msg.to = new_target;
  msg.deliver_at = DeliveryTime(msg.approx_bytes);
  Route(std::move(msg), /*claim=*/ComputeNode::InHandler());
}

void Cluster::Respond(const Message& request, Payload payload,
                      size_t approx_bytes) {
  if (request.correlation_id == 0) return;  // One-way: nothing to do.
  Message msg;
  msg.type = kResponseType;
  msg.from = request.to;
  msg.to = request.from;
  msg.correlation_id = request.correlation_id;
  msg.payload = std::move(payload);
  msg.approx_bytes = approx_bytes;
  msg.deliver_at = DeliveryTime(approx_bytes);
  Route(std::move(msg), /*claim=*/false);
}

void Cluster::Route(Message msg, bool claim) {
  Account(msg);
  bool delayed;
  {
    MutexLock lock(net_mu_);
    delayed = net_running_;
    if (delayed) {
      net_queue_.push(Scheduled{msg.deliver_at, net_seq_++, std::move(msg)});
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
    if (!Resolve(msg.correlation_id, std::move(msg.payload))) {
      SEMTREE_LOG(Warning) << "orphan response for correlation "
                           << msg.correlation_id;
    }
    return;
  }
  const uint64_t correlation = msg.correlation_id;
  ComputeNode* target = node(msg.to);
  if (target == nullptr) {
    SEMTREE_LOG(Warning) << "message to unknown node " << msg.to;
  } else if (target->Deliver(std::move(msg), claim)) {
    return;
  }
  // Nobody will answer: fail the call now rather than leave its caller
  // blocked until Shutdown.
  if (correlation != 0) Resolve(correlation, nullptr);
}

bool Cluster::Resolve(uint64_t correlation, Payload payload) {
  std::promise<Payload> promise;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(correlation);
    if (it == pending_.end()) return false;
    promise = std::move(it->second);
    pending_.erase(it);
  }
  promise.set_value(std::move(payload));
  return true;
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
    auto at = net_queue_.top().at;
    auto now = std::chrono::steady_clock::now();
    if (now < at) {
      // OS timer granularity (tens of microseconds) would inflate
      // sub-100us latencies; spin for near deadlines, sleep for far
      // ones. Spinning can drop the lock: with a uniform latency model
      // later sends always carry later deadlines, so the heap top
      // stays the earliest message.
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
    Message msg = std::move(const_cast<Scheduled&>(net_queue_.top()).msg);
    net_queue_.pop();
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

  auto resolve_pending = [this]() {
    std::map<uint64_t, std::promise<Payload>> pending;
    {
      MutexLock lock(pending_mu_);
      pending.swap(pending_);
    }
    for (auto& [correlation, promise] : pending) {
      (void)correlation;
      promise.set_value(nullptr);
    }
  };

  // Stop the network thread first so no new deliveries race the node
  // teardown; it drains whatever is already queued before exiting.
  {
    MutexLock lock(net_mu_);
    shutdown_ = true;
  }
  net_cv_.NotifyAll();
  if (net_thread_.joinable()) {
    net_thread_.join();
    // Under the lock: a late Route (e.g. a worker mid-Respond during
    // teardown) reads net_running_ under net_mu_ and must see false so
    // it delivers inline instead of queueing to the dead thread.
    MutexLock lock(net_mu_);
    net_running_ = false;
  }
  // Unblock any handler waiting on an in-flight RPC, then stop the
  // nodes; new Calls after this point resolve to nullptr immediately,
  // so no handler can block again.
  resolve_pending();
  std::vector<ComputeNode*> nodes;
  {
    MutexLock lock(nodes_mu_);
    for (auto& n : nodes_) nodes.push_back(n.get());
  }
  for (ComputeNode* n : nodes) n->Stop();
  resolve_pending();
}

}  // namespace semtree
