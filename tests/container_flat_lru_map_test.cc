// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/container/flat_lru_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

namespace vcdn::container {
namespace {

TEST(FlatLruMapTest, InsertAndLookup) {
  FlatLruMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.InsertOrTouch(1, "a"));
  EXPECT_FALSE(map.InsertOrTouch(1, "b"));  // overwrite, not new
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.Peek(1), nullptr);
  EXPECT_EQ(*map.Peek(1), "b");
  EXPECT_EQ(map.Peek(2), nullptr);
}

TEST(FlatLruMapTest, OldestIsLeastRecent) {
  FlatLruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  map.InsertOrTouch(3, 30);
  EXPECT_EQ(map.Oldest().key, 1);
  EXPECT_EQ(map.Newest().key, 3);
}

TEST(FlatLruMapTest, TouchMovesToFront) {
  FlatLruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  map.InsertOrTouch(3, 30);
  ASSERT_NE(map.GetAndTouch(1), nullptr);
  EXPECT_EQ(map.Oldest().key, 2);
  EXPECT_EQ(map.Newest().key, 1);
}

TEST(FlatLruMapTest, PeekDoesNotReorder) {
  FlatLruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  (void)map.Peek(1);
  EXPECT_EQ(map.Oldest().key, 1);
  int* v = map.PeekMut(1);
  ASSERT_NE(v, nullptr);
  *v = 11;
  EXPECT_EQ(map.Oldest().key, 1);
  EXPECT_EQ(*map.Peek(1), 11);
}

TEST(FlatLruMapTest, PopOldestEvictionOrder) {
  FlatLruMap<int, int> map;
  for (int i = 0; i < 5; ++i) {
    map.InsertOrTouch(i, i);
  }
  map.GetAndTouch(0);  // 0 becomes most recent
  EXPECT_EQ(map.PopOldest().key, 1);
  EXPECT_EQ(map.PopOldest().key, 2);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.Contains(1));
}

TEST(FlatLruMapTest, ExchangeReturnsPreviousValueAndTouches) {
  FlatLruMap<int, double> map;
  EXPECT_EQ(map.Exchange(7, 1.5), std::nullopt);
  EXPECT_EQ(*map.Peek(7), 1.5);
  map.InsertOrTouch(8, 2.5);
  // Exchanging an existing key hands back its value and moves it to front.
  EXPECT_EQ(map.Exchange(7, 3.5), std::optional<double>(1.5));
  EXPECT_EQ(*map.Peek(7), 3.5);
  EXPECT_EQ(map.Newest().key, 7);
  EXPECT_EQ(map.Oldest().key, 8);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatLruMapTest, EraseUnlinksAndRecyclesSlot) {
  FlatLruMap<int, int> map;
  for (int i = 0; i < 4; ++i) {
    map.InsertOrTouch(i, i);
  }
  size_t slab = map.slab_size();
  EXPECT_TRUE(map.Erase(2));
  EXPECT_FALSE(map.Erase(2));
  EXPECT_FALSE(map.Contains(2));
  EXPECT_EQ(map.size(), 3u);
  // A new insertion reuses the freed slot: the slab must not grow.
  map.InsertOrTouch(9, 9);
  EXPECT_EQ(map.slab_size(), slab);
  EXPECT_EQ(map.Newest().key, 9);
}

TEST(FlatLruMapTest, ReserveBoundsSlabGrowth) {
  FlatLruMap<uint64_t, uint64_t> map;
  map.Reserve(64);
  // Churn well past capacity: steady-state slab stays at the working-set
  // size because PopOldest feeds the free list.
  for (uint64_t k = 0; k < 1000; ++k) {
    map.InsertOrTouch(k, k);
    if (map.size() > 32) {
      map.PopOldest();
    }
  }
  EXPECT_LE(map.slab_size(), 64u);
  EXPECT_EQ(map.size(), 32u);
}

TEST(FlatLruMapTest, IterationMostRecentFirst) {
  FlatLruMap<int, int> map;
  for (int i = 0; i < 4; ++i) {
    map.InsertOrTouch(i, i * 10);
  }
  map.GetAndTouch(1);
  std::vector<int> keys;
  for (const auto& slot : map) {
    keys.push_back(slot.key);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 2, 0}));
}

TEST(FlatLruMapTest, ClearRetainsNothingObservable) {
  FlatLruMap<int, int> map;
  map.InsertOrTouch(1, 10);
  map.InsertOrTouch(2, 20);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(1));
  map.InsertOrTouch(3, 30);
  EXPECT_EQ(map.Oldest().key, 3);
  EXPECT_EQ(map.Newest().key, 3);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatLruMapTest, BackshiftDeletionKeepsProbesReachable) {
  // Dense sequential keys collide heavily under an identity-like hash; erase
  // in probe order and verify every survivor stays findable (backshift, not
  // tombstones).
  struct BadHash {
    size_t operator()(uint64_t k) const { return k % 8; }
  };
  FlatLruMap<uint64_t, uint64_t, BadHash> map;
  for (uint64_t k = 0; k < 64; ++k) {
    map.InsertOrTouch(k, k);
  }
  for (uint64_t k = 0; k < 64; k += 2) {
    EXPECT_TRUE(map.Erase(k));
  }
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(map.Contains(k), k % 2 == 1) << k;
    if (k % 2 == 1) {
      EXPECT_EQ(*map.Peek(k), k);
    }
  }
}

// Property: after any interleaving of operations, PopOldest returns entries
// in exactly the order of their last touch.
TEST(FlatLruMapTest, PropertyEvictionMatchesTouchOrder) {
  FlatLruMap<int, int> map;
  std::vector<int> touch_order;
  auto touch = [&](int k) {
    map.InsertOrTouch(k, k);
    touch_order.erase(std::remove(touch_order.begin(), touch_order.end(), k), touch_order.end());
    touch_order.push_back(k);
  };
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 20; ++k) {
      touch((k * 7 + round * 3) % 13);
    }
  }
  std::vector<int> evicted;
  while (!map.empty()) {
    evicted.push_back(map.PopOldest().key);
  }
  EXPECT_EQ(evicted, touch_order);
}

}  // namespace
}  // namespace vcdn::container
