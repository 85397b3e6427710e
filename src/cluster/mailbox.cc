// Copyright 2026 The SemTree Authors

#include "cluster/mailbox.h"

namespace semtree {

void Mailbox::Push(Message msg) {
  {
    MutexLock lock(mu_);
    if (closed_) return;
    queue_.push_back(std::move(msg));
  }
  cv_.NotifyOne();
}

bool Mailbox::Pop(Message* out) {
  MutexLock lock(mu_);
  while (!closed_ && queue_.empty()) cv_.Wait(mu_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Mailbox::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

size_t Mailbox::size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

}  // namespace semtree
