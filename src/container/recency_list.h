// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// RecencyList: the intrusive recency list of the flat containers.
//
// The list threads uint32_t handles into the caller's slab through two
// fields every slot type has, `prev` and `next`; the list itself holds only
// the head (most recent), the tail (least recent) and the length. Splicing is
// index assignment within the slab: no node allocation, no pointer chasing
// across nodes. FlatLruMap's recency order, VideoTable's seen list, Cafe's
// popularity history and xLRU's disk LRU are all this one list.
//
// What a slot's links hold while it is off the list (a free-list link, a
// state mark) is the caller's business: the list writes them only in
// PushFront and reads them only in Remove.

#ifndef VCDN_SRC_CONTAINER_RECENCY_LIST_H_
#define VCDN_SRC_CONTAINER_RECENCY_LIST_H_

#include <cstddef>
#include <cstdint>

#include "src/util/check.h"

namespace vcdn::container {

class RecencyList {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    head_ = tail_ = kNil;
    size_ = 0;
  }

  // Links slot `h`, which must be off the list, in as the most recent.
  template <typename Slot>
  void PushFront(Slot* slots, uint32_t h) {
    slots[h].prev = kNil;
    slots[h].next = head_;
    if (head_ != kNil) {
      slots[head_].prev = h;
    } else {
      tail_ = h;
    }
    head_ = h;
    ++size_;
  }

  // Unlinks slot `h`, which must be on the list.
  template <typename Slot>
  void Remove(Slot* slots, uint32_t h) {
    VCDN_DCHECK(size_ > 0);
    const uint32_t prev = slots[h].prev;
    const uint32_t next = slots[h].next;
    if (prev != kNil) {
      slots[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNil) {
      slots[next].prev = prev;
    } else {
      tail_ = prev;
    }
    --size_;
  }

  // Makes slot `h`, which must be on the list, the most recent.
  template <typename Slot>
  void MoveToFront(Slot* slots, uint32_t h) {
    if (head_ != h) {
      Remove(slots, h);
      PushFront(slots, h);
    }
  }

 private:
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  size_t size_ = 0;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_RECENCY_LIST_H_
