// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// FlatIndex on its own: seeded operations against std::unordered_map, with a
// test hasher that piles many keys onto a few 32-bit hashes (0, small
// integers, and the top values whose home is the last line), so probes see
// hash matches with unequal keys, overflow runs across line boundaries and
// across the table's wrap-around, and stale hashes in freed slots. The
// containers built on FlatIndex have their own suites.

#include "src/container/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/container/fast_hash.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"

namespace vcdn {
namespace {

using Index = container::FlatIndex<uint64_t>;
constexpr uint32_t kNil = Index::kNil;
constexpr size_t kLineBytes = 64;
constexpr size_t kSlotsPerLine = 7;

// Hashes shared by the colliding keys: 0 and small integers land in the
// first lines; the two top values land in the last line, so their runs
// wrap to line 0.
constexpr std::array<uint32_t, 8> kCollidingHashes = {0u, 1u, 2u, 3u, 5u, 8u, 0xFFFFFFFFu,
                                                      0xFFFFFFFEu};

// The test hasher. Keys below `colliding_keys` share the eight hashes above;
// the rest are spread by MixU64. FlatIndex takes the hash as an argument,
// so the test chooses it directly.
struct TestHasher {
  uint64_t colliding_keys = 0;
  uint32_t operator()(uint64_t key) const {
    if (key < colliding_keys) {
      return kCollidingHashes[key % kCollidingHashes.size()];
    }
    return static_cast<uint32_t>(container::MixU64(key));
  }
};

// The caller's slab: handle -> key, with freed handles recycled like the
// containers' free lists.
class Slab {
 public:
  uint32_t Alloc(uint64_t key) {
    if (!free_.empty()) {
      const uint32_t h = free_.back();
      free_.pop_back();
      keys_[h] = key;
      return h;
    }
    keys_.push_back(key);
    return static_cast<uint32_t>(keys_.size() - 1);
  }
  void Free(uint32_t h) { free_.push_back(h); }
  void Reserve(size_t n) {
    keys_.reserve(n);
    free_.reserve(n);
  }
  void Reset() {
    keys_.clear();
    free_.clear();
  }
  uint64_t key(uint32_t h) const { return keys_[h]; }

  struct KeyAt {
    const Slab* slab;
    uint64_t operator()(uint32_t h) const { return slab->keys_[h]; }
  };
  KeyAt key_at() const { return KeyAt{this}; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> free_;
};

// Counts hash matches whose key differed (the probe had to go on).
struct CountingKeyAt {
  const Slab* slab;
  uint64_t* calls;
  uint64_t operator()(uint32_t h) const {
    ++*calls;
    return slab->key(h);
  }
};

// Bytes the previous index (8-byte buckets, power-of-two tables of at least
// 16 buckets, grown at 3/4 load) held for `n` entries inserted one by one,
// and after Reserve(n). The line layout must never hold more.
size_t BucketBytesAfterInserts(size_t n) {
  size_t buckets = 16;
  while (n * 4 > buckets * 3) {
    buckets *= 2;
  }
  return n == 0 ? 0 : buckets * 8;
}
size_t BucketBytesAfterReserve(size_t n) {
  size_t buckets = 16;
  while (buckets < n * 4 / 3 + 1) {
    buckets *= 2;
  }
  return buckets * 8;
}
size_t IndexBytes(const Index& index) { return index.slot_count() / kSlotsPerLine * kLineBytes; }

// Seeded Insert/Find/Erase/Clear/Reserve against std::unordered_map around
// `target` live entries.
void RunDifferential(size_t target, uint64_t seed) {
  SCOPED_TRACE(target);
  Index index;
  Slab slab;
  std::unordered_map<uint64_t, uint32_t> ref;
  const TestHasher hash{std::min<uint64_t>(256, target / 2)};
  const uint64_t key_range = target * 3 / 2;
  util::Pcg32 rng(seed);
  uint64_t key_calls = 0;
  const CountingKeyAt key_at{&slab, &key_calls};
  uint64_t mismatches = 0;
  size_t max_live_at_last_line = 0;
  size_t live_at_last_line = 0;  // colliding keys homed at the last line
  bool cleared = false;  // one Clear, halfway; the table refills after it
  auto homed_last = [&](uint64_t key) { return hash(key) >= 0xFFFFFFFEu; };

  auto find = [&](uint64_t key) {
    const uint64_t before = key_calls;
    const uint32_t h = index.Find(hash(key), key, key_at);
    const auto it = ref.find(key);
    const uint64_t hits = it == ref.end() ? 0 : 1;
    mismatches += key_calls - before - hits;
    if (it == ref.end()) {
      EXPECT_EQ(h, kNil) << "key " << key;
    } else {
      EXPECT_EQ(h, it->second) << "key " << key;
    }
    return h;
  };
  auto check_all = [&] {
    ASSERT_EQ(index.size(), ref.size());
    for (const auto& [key, h] : ref) {
      ASSERT_EQ(index.Find(hash(key), key, slab.key_at()), h) << "key " << key;
    }
  };

  constexpr size_t kOps = 1'000'000;
  for (size_t op = 0; op < kOps; ++op) {
    // A quarter of the keys come from the colliding set.
    const uint64_t key = rng.NextBounded(4) == 0 ? rng.Next64() % hash.colliding_keys
                                                 : hash.colliding_keys + rng.Next64() % key_range;
    const uint32_t dice = rng.NextBounded(1000);
    if (dice < 450) {
      if (find(key) == kNil) {
        const uint32_t h = slab.Alloc(key);
        index.Insert(hash(key), h);
        ref.emplace(key, h);
        if (homed_last(key)) {
          max_live_at_last_line = std::max(max_live_at_last_line, ++live_at_last_line);
        }
      }
    } else if (dice < 700) {
      find(key);
    } else if (dice < 900) {
      // Erase by handle, as the containers do: Find, then Erase.
      const uint32_t h = find(key);
      if (h != kNil) {
        index.Erase(hash(key), h);
        slab.Free(h);
        ref.erase(key);
        if (homed_last(key)) {
          --live_at_last_line;
        }
        // The freed slot keeps its hash: the key is now absent.
        find(key);
      }
    } else if (dice < 998) {
      // Keys above the range are never inserted.
      const uint64_t absent = hash.colliding_keys + key_range + rng.Next64() % key_range;
      EXPECT_EQ(index.Find(hash(absent), absent, slab.key_at()), kNil);
    } else if (dice < 999) {
      const size_t slots = index.slot_count();
      index.Reserve(rng.NextBounded(static_cast<uint32_t>(2 * target)));
      EXPECT_GE(index.slot_count(), slots);
      check_all();
    } else if (op >= kOps / 2 && !cleared) {
      cleared = true;
      index.Clear();
      slab.Reset();
      ref.clear();
      live_at_last_line = 0;
      EXPECT_TRUE(index.empty());
    }
    if (op % (kOps / 4) == kOps / 4 - 1) {
      check_all();
    }
  }
  check_all();
  EXPECT_GT(mismatches, 0u) << "no hash match with an unequal key";
  // More than one line's worth of keys homed at the last line: their run
  // wrapped to line 0.
  EXPECT_GT(max_live_at_last_line, kSlotsPerLine);
}

TEST(FlatIndexTest, MatchesUnorderedMapAt64Entries) { RunDifferential(1 << 6, 64); }
TEST(FlatIndexTest, MatchesUnorderedMapAt4KEntries) { RunDifferential(1 << 12, 4096); }
TEST(FlatIndexTest, MatchesUnorderedMapAt256KEntries) { RunDifferential(1 << 18, 262144); }

TEST(FlatIndexTest, OverflowRunWrapsAndSurvivesErasesInTheMiddle) {
  Index index;
  Slab slab;
  index.Reserve(64);
  const size_t lines = index.slot_count() / kSlotsPerLine;
  ASSERT_EQ(lines, 16u);
  // 20 keys homed at the last line fill it and spill over lines 0 and 1;
  // 10 keys homed at line 0 then queue behind them.
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  for (uint64_t k = 0; k < 30; ++k) {
    const uint32_t hash = k < 20 ? 0xFFFFFFFFu : 0u;
    keys.push_back({k, hash});
    index.Insert(hash, slab.Alloc(k));
  }
  for (const auto& [key, hash] : keys) {
    ASSERT_EQ(slab.key(index.Find(hash, key, slab.key_at())), key);
  }
  // Free slots inside the run; every key behind them stays reachable.
  for (uint64_t k : {0u, 3u, 8u, 15u, 21u}) {
    const uint32_t h = index.Find(keys[k].second, k, slab.key_at());
    index.Erase(keys[k].second, h);
    slab.Free(h);
  }
  for (const auto& [key, hash] : keys) {
    const uint32_t h = index.Find(hash, key, slab.key_at());
    if (key == 0 || key == 3 || key == 8 || key == 15 || key == 21) {
      EXPECT_EQ(h, kNil) << key;
    } else {
      ASSERT_NE(h, kNil) << key;
      EXPECT_EQ(slab.key(h), key);
    }
  }
  // New keys reuse the freed slots; then erase everything.
  for (uint64_t k = 100; k < 105; ++k) {
    index.Insert(0xFFFFFFFFu, slab.Alloc(k));
    keys.push_back({k, 0xFFFFFFFFu});
  }
  for (const auto& [key, hash] : keys) {
    const uint32_t h = index.Find(hash, key, slab.key_at());
    if (h != kNil) {
      index.Erase(hash, h);
    }
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.slot_count(), lines * kSlotsPerLine);
  // The emptied table finds nothing, under any of the colliding hashes.
  for (uint32_t hash : kCollidingHashes) {
    EXPECT_EQ(index.Find(hash, 7, slab.key_at()), kNil);
  }
}

TEST(FlatIndexTest, AbsentLookupEndsWhenEveryLineHasOverflowed) {
  // Leave exactly one entry per line, each stored one line past its home,
  // so every line's overflow count is 1 while the table is 1/7 full. A
  // lookup that stopped only at a count of 0 would never end.
  Index index;
  Slab slab;
  index.Reserve(64);
  const uint32_t lines = static_cast<uint32_t>(index.slot_count() / kSlotsPerLine);
  uint64_t next_key = 0;
  for (uint32_t line = 0; line < lines; ++line) {
    // Line `line` already holds the previous line's spill (except line 0).
    const uint32_t fillers = line == 0 ? 7 : 6;
    std::vector<uint32_t> filler_handles;
    for (uint32_t f = 0; f < fillers; ++f) {
      filler_handles.push_back(slab.Alloc(next_key++));
      index.Insert(line, filler_handles.back());
    }
    index.Insert(line, slab.Alloc(next_key++));  // spills into line + 1
    for (uint32_t h : filler_handles) {
      index.Erase(line, h);
    }
  }
  ASSERT_EQ(index.size(), lines);
  ASSERT_EQ(index.slot_count(), lines * kSlotsPerLine);
  for (uint32_t hash = 0; hash < 2 * lines; ++hash) {
    EXPECT_EQ(index.Find(hash, next_key + hash, slab.key_at()), kNil);
  }
}

TEST(FlatIndexTest, SteadyChurnAfterReserveNeitherGrowsNorAllocates) {
  ASSERT_TRUE(util::AllocHookActive())
      << "this test must link vcdn_alloc_hook (see tests/CMakeLists.txt)";
  for (size_t target : {size_t{1} << 6, size_t{1} << 12}) {
    SCOPED_TRACE(target);
    Index index;
    Slab slab;
    std::vector<uint64_t> live;
    live.reserve(target);
    slab.Reserve(target);
    index.Reserve(target);
    const TestHasher hash{std::min<uint64_t>(256, target / 2)};
    uint64_t next_key = 0;
    for (; live.size() < target; ++next_key) {
      index.Insert(hash(next_key), slab.Alloc(next_key));
      live.push_back(next_key);
    }
    const size_t slots = index.slot_count();
    util::Pcg32 rng(target);
    util::AllocScope scope;
    // 10x the table's slots in insert/erase pairs, the erased key chosen at
    // random; the slab's free list recycles handles. Lookups of absent keys,
    // colliding ones included, must end.
    constexpr uint64_t kAbsentColliding = uint64_t{1} << 40;
    for (size_t pair = 0; pair < 10 * slots; ++pair) {
      const size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
      const uint64_t old_key = live[victim];
      const uint32_t h = index.Find(hash(old_key), old_key, slab.key_at());
      ASSERT_NE(h, kNil);
      index.Erase(hash(old_key), h);
      slab.Free(h);
      // Keep colliding keys in the mix: reuse a colliding key if it was the
      // one erased, so the colliding runs stay populated.
      const uint64_t new_key = old_key < hash.colliding_keys ? old_key : next_key++;
      index.Insert(hash(new_key), slab.Alloc(new_key));
      live[victim] = new_key;
      const uint64_t absent = next_key + rng.NextBounded(1000);
      ASSERT_EQ(index.Find(hash(absent), absent, slab.key_at()), kNil);
      ASSERT_EQ(index.Find(kCollidingHashes[pair % kCollidingHashes.size()], kAbsentColliding,
                           slab.key_at()),
                kNil);
    }
    EXPECT_EQ(scope.Delta().allocations, 0u);
    EXPECT_EQ(index.slot_count(), slots);
    for (uint64_t key : live) {
      const uint32_t h = index.Find(hash(key), key, slab.key_at());
      ASSERT_NE(h, kNil) << key;
      EXPECT_EQ(slab.key(h), key);
    }
  }
}

TEST(FlatIndexTest, GrowsFromEmptyWithinThePreviousBytes) {
  Index index;
  Slab slab;
  EXPECT_EQ(index.slot_count(), 0u);
  EXPECT_EQ(index.Find(0, 0, slab.key_at()), kNil);
  const TestHasher hash{256};
  size_t slots = 0;
  constexpr uint64_t kEntries = 1 << 18;
  for (uint64_t key = 0; key < kEntries; ++key) {
    index.Insert(hash(key), slab.Alloc(key));
    if (index.slot_count() != slots) {
      // Growth doubles, and every key survives the rehash.
      EXPECT_TRUE(slots == 0 || index.slot_count() == 2 * slots);
      slots = index.slot_count();
      for (uint64_t k = 0; k <= key; ++k) {
        ASSERT_EQ(slab.key(index.Find(hash(k), k, slab.key_at())), k);
      }
    }
    ASSERT_LE(IndexBytes(index), BucketBytesAfterInserts(key + 1)) << "entries " << key + 1;
  }
  EXPECT_EQ(index.size(), kEntries);
}

TEST(FlatIndexTest, ReserveHoldsNoMoreThanThePreviousBytes) {
  for (size_t n = 0; n <= (1 << 20); n = n < 64 ? n + 1 : n + n / 7) {
    Index index;
    index.Reserve(n);
    EXPECT_LE(IndexBytes(index), BucketBytesAfterReserve(n)) << "n " << n;
    // Reserve(n) makes room for n entries without growth.
    Slab slab;
    const size_t slots = index.slot_count();
    if (n <= (1 << 14)) {
      for (uint64_t key = 0; key < n; ++key) {
        index.Insert(static_cast<uint32_t>(container::MixU64(key)), slab.Alloc(key));
      }
      EXPECT_EQ(index.slot_count(), slots) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace vcdn
