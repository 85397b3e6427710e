// Copyright 2026 The SemTree Authors
//
// Messages exchanged between compute nodes. The paper's implementation
// uses MPJ (MPI for Java) on a physical cluster; this repository
// simulates the cluster in-process (see DESIGN.md §2): payloads are
// type-erased in-memory objects, and each message carries an
// approximate wire size so the simulator can account network bytes and
// apply latency.

#ifndef SEMTREE_CLUSTER_MESSAGE_H_
#define SEMTREE_CLUSTER_MESSAGE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>

namespace semtree {

/// Identifies a compute node in the cluster; kClientNode is the
/// off-cluster caller (the application driving the index).
using NodeId = int32_t;
inline constexpr NodeId kClientNode = -1;

/// Type-erased message body.
using Payload = std::shared_ptr<void>;

/// Wraps a value into a payload.
template <typename T>
Payload MakePayload(T value) {
  return std::make_shared<T>(std::move(value));
}

/// Recovers a typed reference from a payload. The caller must know the
/// message type's payload contract.
template <typename T>
T& PayloadAs(const Payload& payload) {
  return *static_cast<T*>(payload.get());
}

/// The caller's end of one call, shared by every copy of its request
/// (forwards included) and by its response in flight. The first Set
/// resolves the call; later ones do nothing. When the last copy goes
/// away unanswered (no node took the request, or its handler never
/// responded), the destructor resolves the call with a null payload.
class Reply {
 public:
  Reply() = default;
  ~Reply();
  Reply(const Reply&) = delete;
  Reply& operator=(const Reply&) = delete;

  /// The caller's future; call once.
  std::future<Payload> Future() { return promise_.get_future(); }

  void Set(Payload payload);

 private:
  std::promise<Payload> promise_;
  std::atomic<bool> set_{false};
};

/// One message on the simulated interconnect.
struct Message {
  uint32_t type = 0;
  NodeId from = kClientNode;
  NodeId to = kClientNode;

  Payload payload;

  /// Approximate serialized size, accounted in ClusterStats.
  size_t approx_bytes = 0;

  /// Where the answer goes; null for a message nobody waits on.
  std::shared_ptr<Reply> reply;
};

}  // namespace semtree

#endif  // SEMTREE_CLUSTER_MESSAGE_H_
