// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ScoreHeap: the flat successor of the seed's ordered set, which now lives
// in tests/oracles/ref_score_heap.h as its test oracle, RefScoreHeap.
//
// Section 6's "binary tree set plus hash map" kept Cafe's virtual timestamps
// in a red-black std::set -- one node allocation and a pointer-chasing
// rebalance per update. Every algorithm in this repo only ever consumes the
// ordering from ONE end (FillLFU evicts the least-score chunk,
// Psychic/Belady the greatest), so the total order can be relaxed to an
// indexed binary heap over one contiguous slab:
//
//   * nodes_   -- slab of (score, id, heap position); erased nodes recycle
//                 through a free list, zero allocations in steady state;
//   * heap_    -- HandleHeap (handle_heap.h) of uint32_t node handles,
//                 ordered by (score, id) toward the configured end;
//   * index_   -- FlatIndex id -> handle (flat_index.h).
//
// Update/Erase are O(log n) sift operations on the handle array; Top is
// O(1). Tie-breaking is deterministic and bit-identical to the ordered set:
// the min-first heap orders by (score, id) ascending (set begin()), the
// max-first heap by (score, id) descending (set rbegin()), so eviction
// victim order -- and therefore every replay total -- is unchanged.
//
// The sift and ordered-scan code is HandleHeap's, shared with Cafe's chunk
// table, which keeps the same kind of heap over its own slot slab.
//
// Not thread-safe (ScanInOrder reuses mutable scratch); replay shards each
// own their instances.

#ifndef VCDN_SRC_CONTAINER_SCORE_HEAP_H_
#define VCDN_SRC_CONTAINER_SCORE_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/container/flat_index.h"
#include "src/container/handle_heap.h"
#include "src/util/check.h"

namespace vcdn::container {

// kMaxFirst = false: Top() is the least (score, id)   -- the set's begin().
// kMaxFirst = true:  Top() is the greatest (score, id) -- the set's rbegin().
template <typename Id, typename Score, typename Hash = std::hash<Id>, bool kMaxFirst = false>
class ScoreHeap {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;
  using Item = std::pair<Score, Id>;  // ordered by score, then id

  void Reserve(size_t capacity) {
    nodes_.reserve(capacity);
    heap_.Reserve(capacity);
    index_.Reserve(capacity);
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  bool Contains(const Id& id) const { return FindNode(id) != kNil; }

  // Returns the score of an item, or nullptr if absent.
  const Score* GetScore(const Id& id) const {
    uint32_t n = FindNode(id);
    return n == kNil ? nullptr : &nodes_[n].item.first;
  }

  // Inserts the item or moves it to a new score. Returns true if newly
  // inserted.
  bool InsertOrUpdate(const Id& id, const Score& score) {
    const uint32_t hash = index_.HashOf(id);
    uint32_t n = index_.Find(hash, id, IdAt());
    if (n != kNil) {
      nodes_[n].item.first = score;
      heap_.Fix(nodes_[n].heap_pos, Ops());
      return false;
    }
    n = AllocNode(Item{score, id});
    index_.Insert(hash, n);
    heap_.Push(n, Ops());
    return true;
  }

  bool Erase(const Id& id) {
    const uint32_t hash = index_.HashOf(id);
    const uint32_t n = index_.Find(hash, id, IdAt());
    if (n == kNil) {
      return false;
    }
    index_.Erase(hash, n);
    heap_.Remove(nodes_[n].heap_pos, Ops());
    FreeNode(n);
    return true;
  }

  // Best item toward the configured end. Must be non-empty.
  const Item& Top() const { return nodes_[heap_.top()].item; }

  // Removes and returns the best item. Must be non-empty.
  Item PopTop() {
    uint32_t n = heap_.top();
    index_.Erase(index_.HashOf(nodes_[n].item.second), n);
    Item item = std::move(nodes_[n].item);
    heap_.Remove(0, Ops());
    FreeNode(n);
    return item;
  }

  void Clear() {
    nodes_.clear();  // capacity retained
    heap_.Clear();
    index_.Clear();
    free_ = kNil;
  }

  // Visits items in order from Top() outward (globally sorted toward the
  // configured end) until `fn` returns false or items run out. `fn` must not
  // mutate the heap; collect first, erase after.
  template <typename Fn>
  void ScanInOrder(Fn&& fn) const {
    heap_.ScanInOrder(Ops(), [&](uint32_t n) { return fn(nodes_[n].item); });
  }

  // Allocated slab size (for tests: steady state must stop growing).
  size_t slab_size() const { return nodes_.size(); }

 private:
  struct Node {
    Item item;
    // Position in heap_ while live; next free node handle while freed.
    uint32_t heap_pos = kNil;
  };

  // HandleHeap's view of the node slab (`Nodes` is const for scans). Heap
  // order toward the configured end; ties always break on id so the order
  // is total and replay-deterministic.
  template <typename Nodes>
  struct HeapOps {
    Nodes* nodes;
    const Item& KeyOf(uint32_t n) const { return (*nodes)[n].item; }
    bool Before(const Item& a, const Item& b) const {
      if constexpr (kMaxFirst) {
        if (a.first != b.first) {
          return b.first < a.first;
        }
        return b.second < a.second;
      } else {
        if (a.first != b.first) {
          return a.first < b.first;
        }
        return a.second < b.second;
      }
    }
    void SetPos(uint32_t n, uint32_t pos) const { (*nodes)[n].heap_pos = pos; }
  };
  HeapOps<std::vector<Node>> Ops() { return {&nodes_}; }
  HeapOps<const std::vector<Node>> Ops() const { return {&nodes_}; }

  struct IdAtFn {
    const std::vector<Node>* nodes;
    const Id& operator()(uint32_t n) const { return (*nodes)[n].item.second; }
  };
  IdAtFn IdAt() const { return IdAtFn{&nodes_}; }

  uint32_t FindNode(const Id& id) const {
    return index_.Find(index_.HashOf(id), id, IdAt());
  }

  uint32_t AllocNode(Item item) {
    if (free_ != kNil) {
      uint32_t n = free_;
      free_ = nodes_[n].heap_pos;
      nodes_[n].item = std::move(item);
      return n;
    }
    VCDN_CHECK_MSG(nodes_.size() < kNil, "ScoreHeap slab limit (2^32-1 entries) exceeded");
    nodes_.push_back(Node{std::move(item), kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void FreeNode(uint32_t n) {
    nodes_[n].heap_pos = free_;
    free_ = n;
  }

  std::vector<Node> nodes_;
  HandleHeap heap_;
  FlatIndex<Id, Hash> index_;
  uint32_t free_ = kNil;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_SCORE_HEAP_H_
