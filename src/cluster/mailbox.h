// Copyright 2026 The SemTree Authors
//
// A blocking FIFO mailbox, one per compute node. Producers are any
// threads (other nodes' workers, the network thread, clients); the
// consumer is the owning node's worker thread.

#ifndef SEMTREE_CLUSTER_MAILBOX_H_
#define SEMTREE_CLUSTER_MAILBOX_H_

#include <deque>

#include "cluster/message.h"
#include "common/mutex.h"

namespace semtree {

/// Thread-safe blocking queue of Messages.
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues a message. No-op after Close().
  void Push(Message msg);

  /// Blocks until a message is available or the mailbox is closed.
  /// Returns false iff closed and drained.
  bool Pop(Message* out);

  /// Unblocks consumers; pending messages can still be popped.
  void Close();

  size_t size() const;

 private:
  mutable Mutex mu_;
  CondVar cv_;  // Signals "message queued" or "closed" to Pop.
  std::deque<Message> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_MAILBOX_H_
