// Copyright 2026 The SemTree Authors

#include "cluster/compute_node.h"

namespace semtree {

namespace {

// The node this thread has claimed and runs next; at most one.
thread_local ComputeNode* t_claimed = nullptr;
thread_local bool t_in_handler = false;

}  // namespace

ComputeNode::ComputeNode(NodeId id, Handler handler)
    : id_(id), handler_(std::move(handler)), worker_([this]() {
        WorkerLoop();
      }) {}

ComputeNode::~ComputeNode() { Stop(); }

void ComputeNode::Stop() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  cv_.NotifyOne();
  if (worker_.joinable()) worker_.join();
}

bool ComputeNode::Deliver(Message msg, bool claim) {
  {
    MutexLock lock(mu_);
    if (stopped_) return false;
    queue_.push_back(std::move(msg));
    if (running_) return true;  // Its current thread drains the queue.
    if (claim && t_claimed == nullptr) {
      running_ = true;
      t_claimed = this;
      return true;
    }
  }
  cv_.NotifyOne();
  return true;
}

void ComputeNode::RunClaimed() {
  while (ComputeNode* node = t_claimed) {
    t_claimed = nullptr;
    node->Drain();
  }
}

bool ComputeNode::InHandler() { return t_in_handler; }

void ComputeNode::WorkerLoop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      // While another thread holds running_, it drains the queue.
      while (running_ || (queue_.empty() && !stopped_)) cv_.Wait(mu_);
      if (queue_.empty()) return;  // Stopped, drained and released.
      running_ = true;
    }
    Drain();
    RunClaimed();
  }
}

void ComputeNode::Drain() {
  for (;;) {
    Message msg;
    {
      MutexLock lock(mu_);
      // A thread runs one node at a time, so a handler's claim on
      // another node releases this one, to its worker if work is left.
      if (queue_.empty() || t_claimed != nullptr) {
        running_ = false;
        // A stopping worker waits for this release.
        if (!queue_.empty() || stopped_) cv_.NotifyOne();
        return;
      }
      msg = std::move(queue_.front());
      queue_.pop_front();
    }
    Dispatch(msg);
  }
}

void ComputeNode::Dispatch(const Message& msg) {
  // Count before dispatching: the handler may answer its caller, who
  // must then see this message counted.
  processed_.fetch_add(1, std::memory_order_relaxed);
  t_in_handler = true;
  handler_(msg);
  t_in_handler = false;
}

}  // namespace semtree
