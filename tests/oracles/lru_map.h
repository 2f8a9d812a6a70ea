// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// LruMap: a hash map whose entries are additionally kept in recency order,
// the structure described in Section 5 of the paper: "a linked list
// maintaining access times in sorted order, and a hash map that maps keys to
// list entries. ... This enables O(1) lookup of access time, retrieval of
// cache age, removal of the oldest entries, and insertion of entries at list
// head."
//
// Invariant: list order equals insertion/touch order; Touch/Insert move an
// entry to the head (most recent); the tail is the least recently used entry.
// Inserting with an arbitrary recency other than "now" is intentionally not
// supported (mirrors the paper's note).
//
// Test oracle only: the library runs on FlatLruMap
// (src/container/flat_lru_map.h), and container_flat_differential_test
// drives both through ~1M mixed operations asserting identical observable
// state; ReferenceCafeCache (reference_cafe_cache.h) keeps its stats and
// history in it. Keep the two APIs in sync (Reserve/PeekMut here exist for
// that parity and are trivial).

#ifndef VCDN_TESTS_ORACLES_LRU_MAP_H_
#define VCDN_TESTS_ORACLES_LRU_MAP_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace vcdn::container {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  LruMap() = default;

  // API parity with FlatLruMap; the node-based containers cannot pre-place
  // entries, so only the index benefits.
  void Reserve(size_t capacity) { index_.reserve(capacity); }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  bool Contains(const Key& key) const { return index_.find(key) != index_.end(); }

  // Inserts (or overwrites) and makes the entry most-recent. Returns true if
  // the key was newly inserted.
  bool InsertOrTouch(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    order_.push_front(Entry{key, std::move(value)});
    index_.emplace(key, order_.begin());
    return true;
  }

  // Returns the value without changing recency, or nullptr if absent.
  const Value* Peek(const Key& key) const {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    return &it->second->value;
  }

  // Mutable Peek: in-place value update without a recency change.
  Value* PeekMut(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    return &it->second->value;
  }

  // Returns the value and makes the entry most-recent, or nullptr if absent.
  Value* GetAndTouch(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Least recently used entry. Must be non-empty.
  const Entry& Oldest() const {
    VCDN_CHECK(!order_.empty());
    return order_.back();
  }

  // Most recently used entry. Must be non-empty.
  const Entry& Newest() const {
    VCDN_CHECK(!order_.empty());
    return order_.front();
  }

  // Removes and returns the least recently used entry. Must be non-empty.
  Entry PopOldest() {
    VCDN_CHECK(!order_.empty());
    Entry e = std::move(order_.back());
    index_.erase(e.key);
    order_.pop_back();
    return e;
  }

  // Removes a specific key. Returns true if it was present.
  bool Erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  // Iteration from most-recent to least-recent (read-only).
  auto begin() const { return order_.cbegin(); }
  auto end() const { return order_.cend(); }

 private:
  std::list<Entry> order_;
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
};

}  // namespace vcdn::container

#endif  // VCDN_TESTS_ORACLES_LRU_MAP_H_
