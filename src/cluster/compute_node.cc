// Copyright 2026 The SemTree Authors

#include "cluster/compute_node.h"

#include "common/thread_pool.h"

namespace semtree {

namespace {

// The node this thread has claimed and runs next; at most one.
thread_local ComputeNode* t_claimed = nullptr;
thread_local bool t_in_handler = false;

}  // namespace

ComputeNode::ComputeNode(NodeId id, Handler handler, ThreadPool* pool)
    : id_(id), handler_(std::move(handler)), pool_(pool) {}

ComputeNode::~ComputeNode() { Stop(); }

void ComputeNode::Stop() {
  MutexLock lock(mu_);
  stopped_ = true;
  while (running_ || scheduled_) released_.Wait(mu_);
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
    if (scheduled_) return true;
    scheduled_ = true;
  }
  Schedule();
  return true;
}

void ComputeNode::Schedule() {
  // The pool outlives the node, and Stop waits for the task, so the
  // task never outlives the node either.
  pool_->TrySubmit([this]() {
    {
      MutexLock lock(mu_);
      scheduled_ = false;
      // A sender may have claimed the node, and drained it, meanwhile.
      if (running_ || queue_.empty()) {
        if (stopped_) released_.NotifyAll();
        return;
      }
      running_ = true;
    }
    Drain();
    RunClaimed();
  });
}

void ComputeNode::RunClaimed() {
  while (ComputeNode* node = t_claimed) {
    t_claimed = nullptr;
    node->Drain();
  }
}

bool ComputeNode::InHandler() { return t_in_handler; }

void ComputeNode::Drain() {
  for (;;) {
    Message msg;
    {
      MutexLock lock(mu_);
      // A thread runs one node at a time, so a handler's claim on
      // another node releases this one, to the pool if work is left.
      if (queue_.empty() || t_claimed != nullptr) {
        running_ = false;
        if (!queue_.empty() && !scheduled_) {
          scheduled_ = true;
          break;
        }
        // Under the lock: once Stop sees the flags cleared, the node
        // may be destroyed.
        if (stopped_) released_.NotifyAll();
        return;
      }
      msg = std::move(queue_.front());
      queue_.pop_front();
    }
    Dispatch(msg);
  }
  Schedule();
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
