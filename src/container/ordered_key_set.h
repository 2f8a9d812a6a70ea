// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// OrderedKeySet: the "binary tree set plus hash map" structure of Section 6 of
// the paper. It maintains a set of items, each with a totally ordered score
// (Cafe Cache's virtual timestamps), and supports:
//   - InsertOrUpdate(id, score)            O(log n)   (arbitrary score, unlike LRU)
//   - Erase(id), GetScore(id), Contains    O(log n) / O(1)
//   - Min() / PopMin()                     O(1) amortized retrieval of the
//                                          least-score (least popular) item
//   - in-order traversal from the minimum
//
// Ties on score are broken deterministically by id so iteration order is
// reproducible across platforms.
//
// This is the REFERENCE implementation: the hot paths run on ScoreHeap
// (score_heap.h). RefScoreHeap below adapts this set to the ScoreHeap API so
// the differential test, the reference xLRU instantiation
// (container::ReferenceContainers) and ReferenceCafeCache can drive both
// through identical operation sequences.

#ifndef VCDN_SRC_CONTAINER_ORDERED_KEY_SET_H_
#define VCDN_SRC_CONTAINER_ORDERED_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace vcdn::container {

template <typename Id, typename Score, typename Hash = std::hash<Id>>
class OrderedKeySet {
 public:
  using Item = std::pair<Score, Id>;  // ordered by score, then id

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

  // Least-score item. Must be non-empty.
  const Item& Min() const {
    VCDN_CHECK(!ordered_.empty());
    return *ordered_.begin();
  }

  // Removes and returns the least-score item. Must be non-empty.
  Item PopMin() {
    VCDN_CHECK(!ordered_.empty());
    Item item = *ordered_.begin();
    ordered_.erase(ordered_.begin());
    score_by_id_.erase(item.second);
    return item;
  }

  // Greatest-score item. Must be non-empty.
  const Item& Max() const {
    VCDN_CHECK(!ordered_.empty());
    return *ordered_.rbegin();
  }

  // Removes and returns the greatest-score item. Must be non-empty.
  Item PopMax() {
    VCDN_CHECK(!ordered_.empty());
    auto it = std::prev(ordered_.end());
    Item item = *it;
    ordered_.erase(it);
    score_by_id_.erase(item.second);
    return item;
  }

  void Clear() {
    ordered_.clear();
    score_by_id_.clear();
  }

  // In-order (ascending score) traversal.
  auto begin() const { return ordered_.cbegin(); }
  auto end() const { return ordered_.cend(); }

 private:
  std::set<Item> ordered_;
  std::unordered_map<Id, Score, Hash> score_by_id_;
};

// Adapter presenting OrderedKeySet through the directional ScoreHeap API
// (Top/PopTop/ScanInOrder). kMaxFirst = false maps Top to Min (ascending
// scan), kMaxFirst = true maps Top to Max (descending scan) -- exactly the
// (score, id) orders ScoreHeap produces, so the two are interchangeable in
// the differential tests and the reference cache instantiations.
template <typename Id, typename Score, typename Hash = std::hash<Id>, bool kMaxFirst = false>
class RefScoreHeap {
 public:
  using Item = typename OrderedKeySet<Id, Score, Hash>::Item;

  void Reserve(size_t capacity) { (void)capacity; }  // node-based: nothing to pre-place

  size_t size() const { return set_.size(); }
  bool empty() const { return set_.empty(); }
  bool Contains(const Id& id) const { return set_.Contains(id); }
  const Score* GetScore(const Id& id) const { return set_.GetScore(id); }
  bool InsertOrUpdate(const Id& id, const Score& score) { return set_.InsertOrUpdate(id, score); }
  bool Erase(const Id& id) { return set_.Erase(id); }
  void Clear() { set_.Clear(); }

  const Item& Top() const { return kMaxFirst ? set_.Max() : set_.Min(); }
  Item PopTop() { return kMaxFirst ? set_.PopMax() : set_.PopMin(); }

  template <typename Fn>
  void ScanInOrder(Fn&& fn) const {
    if constexpr (kMaxFirst) {
      for (auto it = set_.end(); it != set_.begin();) {
        --it;
        if (!fn(*it)) {
          return;
        }
      }
    } else {
      for (const Item& item : set_) {
        if (!fn(item)) {
          return;
        }
      }
    }
  }

 private:
  OrderedKeySet<Id, Score, Hash> set_;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_ORDERED_KEY_SET_H_
