// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// RefScoreHeap: the "binary tree set plus hash map" structure of Section 6 of
// the paper, presented through the directional ScoreHeap API. It maintains a
// set of items, each with a totally ordered score (Cafe Cache's virtual
// timestamps), and supports:
//   - InsertOrUpdate(id, score)            O(log n)   (arbitrary score, unlike LRU)
//   - Erase(id), GetScore(id), Contains    O(log n) / O(1)
//   - Top() / PopTop()                     O(1) amortized retrieval of the
//                                          item at the configured end
//   - ScanInOrder                          in-order traversal from Top()
//
// Ties on score are broken deterministically by id so iteration order is
// reproducible across platforms. kMaxFirst = false maps Top to the least
// (score, id) (ascending scan, set begin()); kMaxFirst = true maps Top to the
// greatest (descending scan, set rbegin()) -- exactly the orders ScoreHeap
// produces.
//
// Test oracle only: the library runs on ScoreHeap
// (src/container/score_heap.h), and container_flat_differential_test drives
// both through identical operation sequences; ReferenceCafeCache
// (reference_cafe_cache.h) orders its cached chunks and proactive candidates
// with it.

#ifndef VCDN_TESTS_ORACLES_REF_SCORE_HEAP_H_
#define VCDN_TESTS_ORACLES_REF_SCORE_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace vcdn::container {

template <typename Id, typename Score, typename Hash = std::hash<Id>, bool kMaxFirst = false>
class RefScoreHeap {
 public:
  using Item = std::pair<Score, Id>;  // ordered by score, then id

  void Reserve(size_t capacity) { (void)capacity; }  // node-based: nothing to pre-place

  size_t size() const { return score_by_id_.size(); }
  bool empty() const { return score_by_id_.empty(); }

  bool Contains(const Id& id) const { return score_by_id_.count(id) > 0; }

  // Returns the score of an item, or nullptr if absent.
  const Score* GetScore(const Id& id) const {
    auto it = score_by_id_.find(id);
    if (it == score_by_id_.end()) {
      return nullptr;
    }
    return &it->second;
  }

  // Inserts the item or moves it to a new score. Returns true if newly
  // inserted.
  bool InsertOrUpdate(const Id& id, const Score& score) {
    auto it = score_by_id_.find(id);
    if (it != score_by_id_.end()) {
      ordered_.erase(Item{it->second, id});
      it->second = score;
      ordered_.insert(Item{score, id});
      return false;
    }
    score_by_id_.emplace(id, score);
    ordered_.insert(Item{score, id});
    return true;
  }

  bool Erase(const Id& id) {
    auto it = score_by_id_.find(id);
    if (it == score_by_id_.end()) {
      return false;
    }
    ordered_.erase(Item{it->second, id});
    score_by_id_.erase(it);
    return true;
  }

  // Best item toward the configured end. Must be non-empty.
  const Item& Top() const {
    VCDN_CHECK(!ordered_.empty());
    return kMaxFirst ? *ordered_.rbegin() : *ordered_.begin();
  }

  // Removes and returns the best item. Must be non-empty.
  Item PopTop() {
    VCDN_CHECK(!ordered_.empty());
    auto it = kMaxFirst ? std::prev(ordered_.end()) : ordered_.begin();
    Item item = *it;
    ordered_.erase(it);
    score_by_id_.erase(item.second);
    return item;
  }

  void Clear() {
    ordered_.clear();
    score_by_id_.clear();
  }

  // Visits items in order from Top() outward until `fn` returns false or
  // items run out.
  template <typename Fn>
  void ScanInOrder(Fn&& fn) const {
    if constexpr (kMaxFirst) {
      for (auto it = ordered_.rbegin(); it != ordered_.rend(); ++it) {
        if (!fn(*it)) {
          return;
        }
      }
    } else {
      for (const Item& item : ordered_) {
        if (!fn(item)) {
          return;
        }
      }
    }
  }

 private:
  std::set<Item> ordered_;
  std::unordered_map<Id, Score, Hash> score_by_id_;
};

}  // namespace vcdn::container

#endif  // VCDN_TESTS_ORACLES_REF_SCORE_HEAP_H_
