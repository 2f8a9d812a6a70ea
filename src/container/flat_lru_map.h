// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// FlatLruMap: the allocation-free successor of the seed's node-based LruMap,
// which now lives in tests/oracles/lru_map.h as its test oracle.
//
// Same structure as Section 5 of the paper -- a hash map plus a recency
// list -- but realized as flat, index-linked storage instead of
// std::unordered_map + std::list:
//
//   * every entry lives in one contiguous slot slab; erased slots are
//     recycled through a free list, so a warm cache performs zero heap
//     allocations per request;
//   * the recency list is a pair of uint32_t prev/next indices inside the
//     slots (4+4 bytes instead of two 8-byte pointers plus a list node
//     allocation), spliced by index assignment (RecencyList);
//   * the key -> slot index is a FlatIndex: 64-byte lines of 7 (hash, slot)
//     pairs, one line read per probe.
//
// Disk capacity in chunks is known when a cache is constructed, so callers
// Reserve() up front and the steady state never rehashes or grows the slab.
//
// Semantics are identical to LruMap (list order equals insertion/touch
// order; the tail is least recently used); container_flat_differential_test
// drives both through ~1M mixed operations and asserts equal observable
// state.
//
// Not thread-safe; replay shards each own one instance (see
// docs/PARALLELISM.md).

#ifndef VCDN_SRC_CONTAINER_FLAT_LRU_MAP_H_
#define VCDN_SRC_CONTAINER_FLAT_LRU_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/container/flat_index.h"
#include "src/container/recency_list.h"
#include "src/util/check.h"

namespace vcdn::container {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatLruMap {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  // Detached copy of an entry (what PopOldest returns).
  struct Entry {
    Key key;
    Value value;
  };

  // One slab slot: key/value plus the intrusive recency links. `next` of a
  // freed slot doubles as the free-list link.
  struct Slot {
    Key key;
    Value value;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  FlatLruMap() = default;

  // Pre-sizes slab and index for `capacity` entries: afterwards, insertions
  // up to that size never allocate.
  void Reserve(size_t capacity) {
    slots_.reserve(capacity);
    index_.Reserve(capacity);
  }

  size_t size() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  bool Contains(const Key& key) const { return FindSlot(key) != kNil; }

  // Inserts (or overwrites) and makes the entry most-recent. Returns true if
  // the key was newly inserted.
  bool InsertOrTouch(const Key& key, Value value) {
    const uint32_t hash = index_.HashOf(key);
    const uint32_t s = index_.Find(hash, key, KeyAt());
    if (s != kNil) {
      slots_[s].value = std::move(value);
      list_.MoveToFront(slots_.data(), s);
      return false;
    }
    const uint32_t fresh = AllocSlot(key, std::move(value));
    index_.Insert(hash, fresh);
    list_.PushFront(slots_.data(), fresh);
    return true;
  }

  // Returns the value without changing recency, or nullptr if absent.
  const Value* Peek(const Key& key) const {
    uint32_t s = FindSlot(key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  // Mutable Peek: in-place value update without a recency change.
  Value* PeekMut(const Key& key) {
    uint32_t s = FindSlot(key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  // Returns the value and makes the entry most-recent, or nullptr if absent.
  Value* GetAndTouch(const Key& key) {
    uint32_t s = FindSlot(key);
    if (s == kNil) {
      return nullptr;
    }
    list_.MoveToFront(slots_.data(), s);
    return &slots_[s].value;
  }

  // Least recently used entry. Must be non-empty.
  const Slot& Oldest() const {
    VCDN_CHECK(!list_.empty());
    return slots_[list_.tail()];
  }

  // Most recently used entry. Must be non-empty.
  const Slot& Newest() const {
    VCDN_CHECK(!list_.empty());
    return slots_[list_.head()];
  }

  // Removes and returns the least recently used entry. Must be non-empty.
  Entry PopOldest() {
    VCDN_CHECK(!list_.empty());
    uint32_t s = list_.tail();
    index_.Erase(index_.HashOf(slots_[s].key), s);
    Entry e{std::move(slots_[s].key), std::move(slots_[s].value)};
    list_.Remove(slots_.data(), s);
    FreeSlot(s);
    return e;
  }

  // Removes a specific key. Returns true if it was present.
  bool Erase(const Key& key) {
    const uint32_t hash = index_.HashOf(key);
    const uint32_t s = index_.Find(hash, key, KeyAt());
    if (s == kNil) {
      return false;
    }
    index_.Erase(hash, s);
    list_.Remove(slots_.data(), s);
    FreeSlot(s);
    return true;
  }

  void Clear() {
    slots_.clear();  // capacity retained
    index_.Clear();
    list_.Clear();
    free_ = kNil;
  }

  // Iteration from most-recent to least-recent (read-only). Dereferences to
  // a Slot, whose .key/.value match the oracle LruMap's Entry fields.
  class const_iterator {
   public:
    const_iterator(const FlatLruMap* map, uint32_t pos) : map_(map), pos_(pos) {}
    const Slot& operator*() const { return map_->slots_[pos_]; }
    const Slot* operator->() const { return &map_->slots_[pos_]; }
    const_iterator& operator++() {
      pos_ = map_->slots_[pos_].next;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.pos_ != b.pos_;
    }

   private:
    const FlatLruMap* map_;
    uint32_t pos_;
  };

  const_iterator begin() const { return const_iterator(this, list_.head()); }
  const_iterator end() const { return const_iterator(this, kNil); }

  // Allocated slab size (for tests: steady state must stop growing).
  size_t slab_size() const { return slots_.size(); }

 private:
  // Key accessor handed to FlatIndex probes.
  struct KeyAtFn {
    const std::vector<Slot>* slots;
    const Key& operator()(uint32_t s) const { return (*slots)[s].key; }
  };
  KeyAtFn KeyAt() const { return KeyAtFn{&slots_}; }

  uint32_t FindSlot(const Key& key) const {
    return index_.Find(index_.HashOf(key), key, KeyAt());
  }

  uint32_t AllocSlot(const Key& key, Value value) {
    if (free_ != kNil) {
      uint32_t s = free_;
      free_ = slots_[s].next;
      slots_[s].key = key;
      slots_[s].value = std::move(value);
      return s;
    }
    VCDN_CHECK_MSG(slots_.size() < kNil, "FlatLruMap slab limit (2^32-1 entries) exceeded");
    slots_.push_back(Slot{key, std::move(value), kNil, kNil});
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t s) {
    // Release non-trivial payloads eagerly; freed slots may sit in the free
    // list for a long time.
    if constexpr (!std::is_trivially_destructible_v<Key>) {
      slots_[s].key = Key();
    }
    if constexpr (!std::is_trivially_destructible_v<Value>) {
      slots_[s].value = Value();
    }
    slots_[s].next = free_;
    free_ = s;
  }

  std::vector<Slot> slots_;
  FlatIndex<Key, Hash> index_;
  RecencyList list_;
  uint32_t free_ = kNil;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_FLAT_LRU_MAP_H_
