// Copyright 2026 The SemTree Authors
//
// Epoch-based reclamation for read-copy-update (RCU) data structures
// (DESIGN.md §11). Readers pin the global epoch through an EpochGuard
// before dereferencing a published pointer; writers publish a
// replacement, retire the old object tagged with the epoch at which it
// became unreachable, and physically reclaim it only once every reader
// that could still hold the old pointer has drained.
//
// The protocol (all epoch/slot/pointer operations are seq_cst, which
// keeps the safety argument a total-order case split):
//
//   reader                          writer (serialized externally)
//   ------                          ------
//   e = current_epoch()             publish new pointer
//   announce e in a slot (CAS)      r = Advance()        // retire epoch
//   p = load published pointer      retire(old, r)
//   ... use *p ...                  m = MinActiveEpoch()
//   release slot                    reclaim every retiree with epoch < m
//
// Why no retired object is freed under a live reader: consider reader
// R holding pointer p to object V retired at epoch r. In the seq_cst
// total order, R's slot announcement either precedes the writer's slot
// scan — then the writer observes R's epoch e; e was read from the
// global counter before the Advance() that produced r, so e <= r, the
// scan's minimum is <= r, and V (needing min > r) survives — or it
// follows the scan, in which case R's later pointer load also follows
// the writer's earlier publication of the replacement, so R never saw
// V in the first place. Announcing a slightly stale epoch (the counter
// advanced between the read and the CAS) only lowers the minimum:
// reclamation is delayed, never unsafe.
//
// EpochManager synchronizes readers against writers by itself; it does
// NOT serialize writers against each other — publication, Advance,
// Retire and reclaim belong under the owner's writer mutex (see
// core/versioned_index.h, the in-tree user).

#ifndef SEMTREE_CORE_EPOCH_H_
#define SEMTREE_CORE_EPOCH_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>

namespace semtree {

/// Reader registry plus the global epoch counter. Pin/Unpin are
/// wait-free while a slot is available and lock-free overall; they
/// never block on a writer, which is what keeps k-NN reads flat while
/// a writer sustains inserts (the ROADMAP item 3 target).
class EpochManager {
 public:
  /// Concurrent pinned readers supported; a Pin beyond this spins
  /// until a slot frees (readers hold slots only across one search).
  static constexpr size_t kMaxReaders = 64;

  /// Slot value meaning "no reader here"; also the MinActiveEpoch
  /// result when nothing is pinned (every retiree is reclaimable).
  static constexpr uint64_t kIdle = std::numeric_limits<uint64_t>::max();

  EpochManager() {
    for (std::atomic<uint64_t>& slot : slots_) slot.store(kIdle);
  }
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Claims a reader slot announcing the current epoch; returns the
  /// slot index for Unpin. Prefer the RAII EpochGuard.
  size_t Pin() {
    for (;;) {
      uint64_t epoch = global_.load(std::memory_order_seq_cst);
      for (size_t i = 0; i < kMaxReaders; ++i) {
        uint64_t idle = kIdle;
        if (slots_[i].compare_exchange_strong(
                idle, epoch, std::memory_order_seq_cst)) {
          return i;
        }
      }
      // All slots taken: > kMaxReaders concurrent searches. Re-read
      // the epoch and rescan; slots turn over per search, so this
      // resolves in bounded time without blocking any writer.
    }
  }

  void Unpin(size_t slot) {
    slots_[slot].store(kIdle, std::memory_order_seq_cst);
  }

  uint64_t current_epoch() const {
    return global_.load(std::memory_order_seq_cst);
  }

  /// Advances the global epoch; returns the PRE-increment value — the
  /// epoch to tag a just-unpublished object with (readers announcing
  /// that value or earlier may still hold it).
  uint64_t Advance() {
    return global_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Smallest epoch announced by any pinned reader, or kIdle when no
  /// reader is pinned. A retiree tagged `r` is reclaimable iff
  /// r < MinActiveEpoch().
  uint64_t MinActiveEpoch() const {
    uint64_t min = kIdle;
    for (const std::atomic<uint64_t>& slot : slots_) {
      uint64_t e = slot.load(std::memory_order_seq_cst);
      if (e < min) min = e;
    }
    return min;
  }

  /// Pinned reader count (tests and introspection only; racy by
  /// nature).
  size_t ActiveReaders() const {
    size_t n = 0;
    for (const std::atomic<uint64_t>& slot : slots_) {
      if (slot.load(std::memory_order_seq_cst) != kIdle) ++n;
    }
    return n;
  }

 private:
  // Epoch 1 up: a retiree tagged with the pre-increment value is then
  // always < some future epoch, and 0 never collides with a live tag.
  std::atomic<uint64_t> global_{1};
  std::array<std::atomic<uint64_t>, kMaxReaders> slots_;
};

/// RAII reader pin. Hold one across every dereference of an
/// RCU-published pointer; destruction releases the slot.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& manager)
      : manager_(manager), slot_(manager.Pin()) {}
  ~EpochGuard() { manager_.Unpin(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager& manager_;
  size_t slot_;
};

/// Limbo list of retired objects awaiting reclamation. Entries carry
/// the retire epoch, an opaque caller tag (VersionedIndex stores the
/// retired version's cache epoch so the engine can evict exactly the
/// drained versions' cache entries) and a deleter. NOT internally
/// synchronized: Retire/Reclaim belong under the owner's writer mutex,
/// like every other writer-side step of the protocol.
class RetireList {
 public:
  RetireList() = default;
  RetireList(const RetireList&) = delete;
  RetireList& operator=(const RetireList&) = delete;
  ~RetireList() { ReclaimAll(); }

  /// Queues `free` to run once every reader announcing an epoch
  /// <= `retire_epoch` drains. Retire epochs must be non-decreasing
  /// across calls (they come from one serialized Advance() stream).
  void Retire(uint64_t retire_epoch, uint64_t tag,
              std::function<void()> free) {
    entries_.push_back(Entry{retire_epoch, tag, std::move(free)});
  }

  /// Runs the deleter of every entry with retire_epoch < `min_active`
  /// (pass EpochManager::MinActiveEpoch(); kIdle reclaims everything).
  /// Returns the number reclaimed.
  size_t ReclaimBefore(uint64_t min_active) {
    size_t n = 0;
    while (!entries_.empty() &&
           entries_.front().retire_epoch < min_active) {
      entries_.front().free();
      entries_.pop_front();
      ++n;
    }
    return n;
  }

  /// Unconditional drain — destruction-time only, when the owner
  /// guarantees no reader can still be pinned.
  size_t ReclaimAll() {
    return ReclaimBefore(std::numeric_limits<uint64_t>::max());
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Tag of the oldest (front) retiree, or `fallback` when empty.
  uint64_t oldest_tag(uint64_t fallback) const {
    return entries_.empty() ? fallback : entries_.front().tag;
  }

 private:
  struct Entry {
    uint64_t retire_epoch;
    uint64_t tag;
    std::function<void()> free;
  };
  std::deque<Entry> entries_;
};

}  // namespace semtree

#endif  // SEMTREE_CORE_EPOCH_H_
