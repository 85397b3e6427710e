// Copyright 2026 The SemTree Authors
//
// PointStore: the flat coordinate arena behind every index backend.
// All coordinates live row-major in fixed-size power-of-two chunks (one
// allocation per chunk, never reallocated), with a parallel PointId
// array. Leaf buckets and search loops hold 32-bit slot indices into
// the store, so scanning a bucket touches one contiguous row per point
// instead of chasing a heap-allocated std::vector<double> each.
//
// Guarantees:
//  * Row pointers (CoordsAt / View) stay valid for the store's whole
//    lifetime — chunks are never moved or freed before destruction.
//  * Rows are contiguous and consecutive slots within a chunk are
//    adjacent in memory (chunks hold `chunk_capacity` rows back to
//    back). Slots follow append order, except where a bulk build has
//    reordered them with Permute so that each of its leaves is one
//    run of consecutive slots.
//  * Released slots are recycled by later appends (free list), so a
//    long-lived store with churn does not grow without bound.

#ifndef SEMTREE_CORE_POINT_STORE_H_
#define SEMTREE_CORE_POINT_STORE_H_

#include <cassert>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/point.h"

namespace semtree {

class PointStore {
 public:
  /// Slot index into a PointStore.
  using Slot = uint32_t;

  /// Default rows per chunk (64 KiB of doubles at 8 dimensions).
  static constexpr size_t kDefaultChunkCapacity = 1024;

  /// `chunk_capacity` is rounded up to a power of two so slot->chunk
  /// resolution is a shift/mask.
  explicit PointStore(size_t dimensions,
                      size_t chunk_capacity = kDefaultChunkCapacity)
      : dim_(dimensions < 1 ? 1 : dimensions) {
    shift_ = 0;
    size_t cap = 1;
    while (cap < chunk_capacity) {
      cap <<= 1;
      ++shift_;
    }
    mask_ = cap - 1;
  }

  PointStore(PointStore&&) = default;
  PointStore& operator=(PointStore&&) = default;
  PointStore(const PointStore&) = delete;
  PointStore& operator=(const PointStore&) = delete;

  size_t dimensions() const { return dim_; }

  /// Live points (appended minus released).
  size_t size() const { return live_; }

  /// Slots ever allocated (upper bound over all valid slot indices).
  size_t slot_count() const { return slots_; }

  size_t chunk_capacity() const { return mask_ + 1; }

  /// Pre-allocates chunks for `points` further appends.
  void Reserve(size_t points) {
    ids_.reserve(slots_ + points);
    while (cap_ - slots_ + free_.size() < points) AddChunk();
  }

  /// Copies one coordinate row into the arena; returns its slot.
  Slot Append(const double* coords, PointId id) {
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      ids_[slot] = id;
    } else {
      if (slots_ == cap_) AddChunk();
      assert(slots_ <= std::numeric_limits<Slot>::max());
      slot = static_cast<Slot>(slots_++);
      ids_.push_back(id);
    }
    std::memcpy(MutableCoordsAt(slot), coords, dim_ * sizeof(double));
    ++live_;
    return slot;
  }

  Slot Append(const std::vector<double>& coords, PointId id) {
    assert(coords.size() == dim_);
    return Append(coords.data(), id);
  }

  /// Marks a slot dead; its row may be reused by a later Append. The
  /// caller must drop every reference to the slot first.
  void Release(Slot slot) {
    assert(slot < slots_);
    assert(live_ > 0);
    free_.push_back(slot);
    --live_;
  }

  /// Stable pointer to the row of `slot` (contiguous, length dim_).
  const double* CoordsAt(Slot slot) const {
    assert(slot < slots_);
    return chunks_[slot >> shift_].get() + (slot & mask_) * dim_;
  }

  double* MutableCoordsAt(Slot slot) {
    return const_cast<double*>(CoordsAt(slot));
  }

  PointId IdAt(Slot slot) const {
    assert(slot < slots_);
    return ids_[slot];
  }

  PointView View(Slot slot) const {
    return PointView{CoordsAt(slot), dim_, ids_[slot]};
  }

  /// Rearranges the rows so that slot i holds what slot `order[i]`
  /// held, for every i. A bulk build calls this once its plan is
  /// final, so that each leaf's rows form one run of consecutive slots
  /// (DESIGN.md §8). `order` must be a permutation of
  /// [0, slot_count()) and the store must have no free slots. Follows
  /// each cycle in place with one temporary row and a visited bitmap.
  void Permute(const std::vector<Slot>& order) {
    assert(order.size() == slots_ && free_.empty());
    const size_t bytes = dim_ * sizeof(double);
    std::vector<double> row(dim_);
    std::vector<bool> done(slots_, false);
    for (size_t i = 0; i < slots_; ++i) {
      const Slot start = static_cast<Slot>(i);
      if (done[start] || order[start] == start) continue;
      // Each slot of the cycle pulls its row from order[slot]; the
      // last one pulls the saved row of `start`.
      std::memcpy(row.data(), CoordsAt(start), bytes);
      const PointId start_id = ids_[start];
      Slot dst = start;
      for (Slot src = order[dst]; src != start; src = order[dst]) {
        std::memcpy(MutableCoordsAt(dst), CoordsAt(src), bytes);
        ids_[dst] = ids_[src];
        done[dst] = true;
        dst = src;
      }
      std::memcpy(MutableCoordsAt(dst), row.data(), bytes);
      ids_[dst] = start_id;
      done[dst] = true;
    }
  }

  /// Serialization access (persist/snapshot.h): the id of every
  /// allocated slot, and the free list in recycling order.
  const std::vector<PointId>& slot_ids() const { return ids_; }
  const std::vector<Slot>& free_slots() const { return free_; }

  /// Rebuilds a store's slot layout from its serialized parts — same
  /// slot indices, same free-list recycling order — so structures
  /// holding slot indices stay valid without translation. Coordinate
  /// rows are left uninitialized; the caller (persist::ReadPointStore)
  /// streams them straight into the chunks via MutableCoordsAt. Inputs
  /// must be pre-validated.
  static PointStore Preallocate(size_t dimensions, size_t chunk_capacity,
                                std::vector<PointId> ids,
                                std::vector<Slot> free_slots) {
    PointStore store(dimensions, chunk_capacity);
    assert(free_slots.size() <= ids.size());
    while (store.cap_ < ids.size()) store.AddChunk();
    store.slots_ = ids.size();
    store.live_ = ids.size() - free_slots.size();
    store.ids_ = std::move(ids);
    store.free_ = std::move(free_slots);
    return store;
  }

 private:
  void AddChunk() {
    chunks_.push_back(std::make_unique<double[]>(chunk_capacity() * dim_));
    cap_ += chunk_capacity();
  }

  size_t dim_;
  size_t shift_ = 0;
  size_t mask_ = 0;
  size_t slots_ = 0;  // Slots ever allocated.
  size_t cap_ = 0;    // Total chunk capacity in points.
  size_t live_ = 0;   // Live (non-released) points.
  std::vector<std::unique_ptr<double[]>> chunks_;
  std::vector<PointId> ids_;
  std::vector<Slot> free_;
};

}  // namespace semtree

#endif  // SEMTREE_CORE_POINT_STORE_H_
