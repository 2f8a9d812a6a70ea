// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/container/score_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace vcdn::container {
namespace {

using MinHeap = ScoreHeap<uint64_t, double>;
using MaxHeap = ScoreHeap<uint64_t, double, std::hash<uint64_t>, true>;

TEST(ScoreHeapTest, InsertUpdateAndLookup) {
  MinHeap heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_TRUE(heap.InsertOrUpdate(1, 5.0));
  EXPECT_FALSE(heap.InsertOrUpdate(1, 3.0));  // update, not new
  EXPECT_EQ(heap.size(), 1u);
  ASSERT_NE(heap.GetScore(1), nullptr);
  EXPECT_EQ(*heap.GetScore(1), 3.0);
  EXPECT_EQ(heap.GetScore(2), nullptr);
  EXPECT_TRUE(heap.Contains(1));
}

TEST(ScoreHeapTest, MinFirstTopAndPopOrder) {
  MinHeap heap;
  heap.InsertOrUpdate(10, 3.0);
  heap.InsertOrUpdate(20, 1.0);
  heap.InsertOrUpdate(30, 2.0);
  EXPECT_EQ(heap.Top(), (MinHeap::Item{1.0, 20}));
  EXPECT_EQ(heap.PopTop(), (MinHeap::Item{1.0, 20}));
  EXPECT_EQ(heap.PopTop(), (MinHeap::Item{2.0, 30}));
  EXPECT_EQ(heap.PopTop(), (MinHeap::Item{3.0, 10}));
  EXPECT_TRUE(heap.empty());
}

TEST(ScoreHeapTest, MaxFirstTopAndPopOrder) {
  MaxHeap heap;
  heap.InsertOrUpdate(10, 3.0);
  heap.InsertOrUpdate(20, 1.0);
  heap.InsertOrUpdate(30, 2.0);
  EXPECT_EQ(heap.Top(), (MaxHeap::Item{3.0, 10}));
  EXPECT_EQ(heap.PopTop(), (MaxHeap::Item{3.0, 10}));
  EXPECT_EQ(heap.PopTop(), (MaxHeap::Item{2.0, 30}));
  EXPECT_EQ(heap.PopTop(), (MaxHeap::Item{1.0, 20}));
}

TEST(ScoreHeapTest, TieBreaksOnIdLikeOrderedSet) {
  // Equal scores: min-first yields ascending id (set begin()), max-first
  // yields descending id (set rbegin()).
  MinHeap min_heap;
  MaxHeap max_heap;
  for (uint64_t id : {5u, 1u, 9u, 3u}) {
    min_heap.InsertOrUpdate(id, 7.0);
    max_heap.InsertOrUpdate(id, 7.0);
  }
  EXPECT_EQ(min_heap.PopTop().second, 1u);
  EXPECT_EQ(min_heap.PopTop().second, 3u);
  EXPECT_EQ(max_heap.PopTop().second, 9u);
  EXPECT_EQ(max_heap.PopTop().second, 5u);
}

TEST(ScoreHeapTest, UpdateResifts) {
  MinHeap heap;
  heap.InsertOrUpdate(1, 1.0);
  heap.InsertOrUpdate(2, 2.0);
  heap.InsertOrUpdate(3, 3.0);
  heap.InsertOrUpdate(1, 9.0);  // down
  EXPECT_EQ(heap.Top().second, 2u);
  heap.InsertOrUpdate(3, 0.5);  // up
  EXPECT_EQ(heap.Top(), (MinHeap::Item{0.5, 3}));
}

TEST(ScoreHeapTest, EraseRemovesAndRecyclesNode) {
  MinHeap heap;
  for (uint64_t id = 0; id < 8; ++id) {
    heap.InsertOrUpdate(id, static_cast<double>(id));
  }
  size_t slab = heap.slab_size();
  EXPECT_TRUE(heap.Erase(0));
  EXPECT_FALSE(heap.Erase(0));
  EXPECT_FALSE(heap.Contains(0));
  EXPECT_EQ(heap.Top().second, 1u);
  heap.InsertOrUpdate(100, 50.0);  // reuses the freed node
  EXPECT_EQ(heap.slab_size(), slab);
}

TEST(ScoreHeapTest, ScanInOrderIsGloballySorted) {
  MinHeap min_heap;
  MaxHeap max_heap;
  // Deterministic scramble of scores.
  for (uint64_t id = 0; id < 64; ++id) {
    double score = static_cast<double>((id * 37) % 64);
    min_heap.InsertOrUpdate(id, score);
    max_heap.InsertOrUpdate(id, score);
  }
  std::vector<std::pair<double, uint64_t>> min_order;
  min_heap.ScanInOrder([&](const auto& item) {
    min_order.push_back(item);
    return true;
  });
  ASSERT_EQ(min_order.size(), 64u);
  for (size_t i = 1; i < min_order.size(); ++i) {
    EXPECT_LT(min_order[i - 1], min_order[i]);
  }
  std::vector<std::pair<double, uint64_t>> max_order;
  max_heap.ScanInOrder([&](const auto& item) {
    max_order.push_back(item);
    return true;
  });
  ASSERT_EQ(max_order.size(), 64u);
  for (size_t i = 1; i < max_order.size(); ++i) {
    EXPECT_GT(max_order[i - 1], max_order[i]);
  }
}

TEST(ScoreHeapTest, ScanInOrderEarlyStop) {
  MinHeap heap;
  for (uint64_t id = 0; id < 16; ++id) {
    heap.InsertOrUpdate(id, static_cast<double>(15 - id));
  }
  std::vector<uint64_t> visited;
  heap.ScanInOrder([&](const auto& item) {
    visited.push_back(item.second);
    return visited.size() < 3;
  });
  EXPECT_EQ(visited, (std::vector<uint64_t>{15, 14, 13}));
  EXPECT_EQ(heap.size(), 16u);  // scan is non-destructive
}

TEST(ScoreHeapTest, ClearThenReuse) {
  MinHeap heap;
  heap.InsertOrUpdate(1, 1.0);
  heap.InsertOrUpdate(2, 2.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(1));
  heap.InsertOrUpdate(3, 3.0);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.Top(), (MinHeap::Item{3.0, 3}));
}

TEST(ScoreHeapTest, ReserveBoundsSlabUnderChurn) {
  MinHeap heap;
  heap.Reserve(64);
  for (uint64_t k = 0; k < 1000; ++k) {
    heap.InsertOrUpdate(k, static_cast<double>(k % 97));
    if (heap.size() > 32) {
      heap.PopTop();
    }
  }
  EXPECT_LE(heap.slab_size(), 64u);
  EXPECT_EQ(heap.size(), 32u);
}

// Property: under random insert/update/erase churn, the min-first Top is
// always the smallest live (score, id) pair and the max-first Top the
// largest.
TEST(ScoreHeapTest, PropertyTopMatchesBruteForce) {
  MinHeap min_heap;
  MaxHeap max_heap;
  std::vector<std::pair<double, uint64_t>> mirror;  // (score, id)
  util::Pcg32 rng(77);
  for (int op = 0; op < 5000; ++op) {
    uint64_t id = rng.NextBounded(100);
    double score = static_cast<double>(rng.NextBounded(1000));
    auto it = std::find_if(mirror.begin(), mirror.end(),
                           [&](const auto& p) { return p.second == id; });
    if (rng.NextBool(0.2) && it != mirror.end()) {
      min_heap.Erase(id);
      max_heap.Erase(id);
      mirror.erase(it);
    } else {
      min_heap.InsertOrUpdate(id, score);
      max_heap.InsertOrUpdate(id, score);
      if (it != mirror.end()) {
        it->first = score;
      } else {
        mirror.emplace_back(score, id);
      }
    }
    ASSERT_EQ(min_heap.size(), mirror.size());
    ASSERT_EQ(max_heap.size(), mirror.size());
    if (!mirror.empty()) {
      ASSERT_EQ(min_heap.Top(), *std::min_element(mirror.begin(), mirror.end()));
      ASSERT_EQ(max_heap.Top(), *std::max_element(mirror.begin(), mirror.end()));
    }
  }
}

}  // namespace
}  // namespace vcdn::container
