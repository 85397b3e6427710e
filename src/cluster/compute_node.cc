// Copyright 2026 The SemTree Authors

#include "cluster/compute_node.h"

#include "common/logging.h"

namespace semtree {

ComputeNode::ComputeNode(NodeId id, Cluster* cluster)
    : id_(id), cluster_(cluster) {
  (void)cluster_;
}

ComputeNode::~ComputeNode() { Stop(); }

void ComputeNode::RegisterHandler(uint32_t type, Handler handler) {
  handlers_[type] = std::move(handler);
}

void ComputeNode::Start() {
  if (started_) return;
  started_ = true;
  worker_ = std::thread([this]() { WorkerLoop(); });
}

void ComputeNode::Stop() {
  mailbox_.Close();
  if (worker_.joinable()) worker_.join();
}

void ComputeNode::Deliver(Message msg) { mailbox_.Push(std::move(msg)); }

void ComputeNode::WorkerLoop() {
  Message msg;
  while (mailbox_.Pop(&msg)) {
    auto it = handlers_.find(msg.type);
    if (it == handlers_.end()) {
      SEMTREE_LOG(Warning) << "node " << id_
                           << " dropped message of unknown type "
                           << msg.type;
      continue;
    }
    // Count before dispatching: the handler may answer its caller, who
    // must then see this message counted.
    processed_.fetch_add(1, std::memory_order_relaxed);
    it->second(msg);
  }
}

}  // namespace semtree
