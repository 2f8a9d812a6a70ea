// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// HandleHeap: the indexed binary heap shared by ScoreHeap and Cafe's chunk
// table (src/core/cafe_cache.h).
//
// The heap array holds only uint32_t handles into the caller's slab. What a
// handle's key is, how two keys order, and where a handle records its heap
// position all live with the caller and are passed to every mutating call
// as an `ops` object:
//
//   Key   ops.KeyOf(uint32_t handle) const;         // by value or by ref
//   bool  ops.Before(const Key& a, const Key& b) const;  // a nearer the top
//   void  ops.SetPos(uint32_t handle, uint32_t pos) const;
//
// so one sift and one ordered-scan implementation serve slabs of any layout.
// `Before` must be a strict total order (ties broken by id), which makes Top
// and ScanInOrder's sequence independent of the heap's internal shape.
//
// ScanInOrder visits handles in globally sorted order from the top outward
// without mutating the heap: an auxiliary heap over heap positions yields the
// next-best position each step, because every heap parent precedes its
// children. Its scratch buffer is a reused member, so steady-state scans do
// not allocate.
//
// Not thread-safe (ScanInOrder reuses mutable scratch).

#ifndef VCDN_SRC_CONTAINER_HANDLE_HEAP_H_
#define VCDN_SRC_CONTAINER_HANDLE_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace vcdn::container {

class HandleHeap {
 public:
  void Reserve(size_t capacity) { heap_.reserve(capacity); }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  // Handle at the top (the first in order). Must be non-empty.
  uint32_t top() const {
    VCDN_CHECK(!heap_.empty());
    return heap_[0];
  }

  void Clear() { heap_.clear(); }

  // Adds `handle` and restores heap order.
  template <typename Ops>
  void Push(uint32_t handle, const Ops& ops) {
    VCDN_CHECK_MSG(heap_.size() < UINT32_MAX, "HandleHeap limit (2^32-1 entries) exceeded");
    heap_.push_back(handle);
    SiftUp(static_cast<uint32_t>(heap_.size() - 1), ops);
  }

  // Removes the handle at heap position `pos` (swap the last one in, then
  // restore order).
  template <typename Ops>
  void Remove(uint32_t pos, const Ops& ops) {
    VCDN_DCHECK(pos < heap_.size());
    uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      heap_[pos] = last;
      ops.SetPos(last, pos);
      Fix(pos, ops);
    }
  }

  // Restores order after the key of the handle at `pos` changed.
  template <typename Ops>
  void Fix(uint32_t pos, const Ops& ops) {
    if (!SiftUp(pos, ops)) {
      SiftDown(pos, ops);
    }
  }

  // Visits handles in order from top() outward until `fn(handle)` returns
  // false or handles run out. `fn` must not mutate the heap; collect first,
  // mutate after.
  template <typename Ops, typename Fn>
  void ScanInOrder(const Ops& ops, Fn&& fn) const {
    if (heap_.empty()) {
      return;
    }
    scan_scratch_.clear();
    scan_scratch_.push_back(0);
    auto later = [&](uint32_t a, uint32_t b) {
      // "a comes after b": std heap ops then surface the scan-next position.
      return ops.Before(ops.KeyOf(heap_[b]), ops.KeyOf(heap_[a]));
    };
    while (!scan_scratch_.empty()) {
      std::pop_heap(scan_scratch_.begin(), scan_scratch_.end(), later);
      uint32_t pos = scan_scratch_.back();
      scan_scratch_.pop_back();
      if (!fn(heap_[pos])) {
        return;
      }
      for (size_t child = size_t{pos} * 2 + 1; child <= size_t{pos} * 2 + 2; ++child) {
        if (child < heap_.size()) {
          scan_scratch_.push_back(static_cast<uint32_t>(child));
          std::push_heap(scan_scratch_.begin(), scan_scratch_.end(), later);
        }
      }
    }
  }

 private:
  // Returns true if the handle moved.
  template <typename Ops>
  bool SiftUp(uint32_t pos, const Ops& ops) {
    const uint32_t n = heap_[pos];
    const auto& key = ops.KeyOf(n);
    bool moved = false;
    while (pos > 0) {
      uint32_t parent = (pos - 1) / 2;
      if (!ops.Before(key, ops.KeyOf(heap_[parent]))) {
        break;
      }
      heap_[pos] = heap_[parent];
      ops.SetPos(heap_[pos], pos);
      pos = parent;
      moved = true;
    }
    heap_[pos] = n;
    ops.SetPos(n, pos);
    return moved;
  }

  template <typename Ops>
  void SiftDown(uint32_t pos, const Ops& ops) {
    const uint32_t n = heap_[pos];
    const auto& key = ops.KeyOf(n);
    const size_t count = heap_.size();
    while (true) {
      size_t child = size_t{pos} * 2 + 1;
      if (child >= count) {
        break;
      }
      // The better child, then whether it beats the sifted key.
      if (child + 1 < count && ops.Before(ops.KeyOf(heap_[child + 1]), ops.KeyOf(heap_[child]))) {
        ++child;
      }
      if (!ops.Before(ops.KeyOf(heap_[child]), key)) {
        break;
      }
      heap_[pos] = heap_[child];
      ops.SetPos(heap_[pos], pos);
      pos = static_cast<uint32_t>(child);
    }
    heap_[pos] = n;
    ops.SetPos(n, pos);
  }

  std::vector<uint32_t> heap_;
  mutable std::vector<uint32_t> scan_scratch_;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_HANDLE_HEAP_H_
