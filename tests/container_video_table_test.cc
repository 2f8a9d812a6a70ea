// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// VideoTable (src/container/video_table.h): the recency list against the
// LruMap oracle, row growth and reuse, the record lifecycle, and zero
// steady-state allocations under the counting operator new
// (vcdn_alloc_hook, linked into this test).

#include "src/container/video_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/util/alloc_hook.h"
#include "src/util/rng.h"
#include "tests/oracles/lru_map.h"

namespace vcdn::container {
namespace {

constexpr uint32_t kNil = VideoTable::kNil;

// Videos listed newest first.
std::vector<uint64_t> ListedVideos(const VideoTable& table) {
  std::vector<uint64_t> videos;
  table.ForEachListed([&](uint32_t r) { videos.push_back(table.video(r)); });
  return videos;
}

TEST(VideoTableTest, ListMatchesLruMapOracleThroughMixedOps) {
  VideoTable table;
  LruMap<uint64_t, double> ref;
  // The rows the table should hold: video -> chunk -> handle.
  std::map<uint64_t, std::map<uint32_t, uint32_t>> rows;
  util::Pcg32 rng(29);
  constexpr size_t kOps = 1'000'000;
  constexpr uint64_t kVideos = 1 << 12;
  double now = 0.0;
  uint32_t next_handle = 0;
  for (size_t i = 0; i < kOps; ++i) {
    now += 1.0;
    const uint64_t video = rng.Next64() % kVideos;
    const uint32_t op = rng.NextBounded(100);
    if (op < 55) {
      const double* before = ref.Peek(video);
      const VideoTable::Touched touched = table.Touch(video, now);
      ASSERT_EQ(touched.listed, before != nullptr);
      if (before != nullptr) {
        ASSERT_EQ(touched.previous, *before);
      }
      ref.InsertOrTouch(video, now);
      ASSERT_EQ(table.video(touched.record), video);
    } else if (op < 75) {
      if (!ref.empty()) {
        ASSERT_EQ(table.video(table.oldest()), ref.Oldest().key);
        ASSERT_EQ(table.last(table.oldest()), ref.Oldest().value);
        table.PopOldest();
        ref.PopOldest();
      }
    } else if (op < 88) {
      // A row entry for a video with a record (listed, or kept by its row).
      const uint32_t r = table.Find(video);
      if (r != kNil) {
        const uint32_t chunk = rng.NextBounded(40);
        if (table.Get(r, chunk) == kNil) {
          table.Set(r, chunk, next_handle);
          rows[video][chunk] = next_handle++;
        }
      }
    } else {
      auto it = rows.find(video);
      if (it != rows.end()) {
        const uint32_t r = table.Find(video);
        ASSERT_NE(r, kNil);
        const auto entry = it->second.begin();
        ASSERT_EQ(table.Get(r, entry->first), entry->second);
        table.Erase(r, entry->first);
        it->second.erase(entry);
        if (it->second.empty()) {
          rows.erase(it);
        }
      }
    }
    ASSERT_EQ(table.listed(), ref.size());
    if (i % 50'000 == 0) {
      std::vector<uint64_t> expected;
      std::set<uint64_t> live;
      for (const auto& entry : ref) {
        expected.push_back(entry.key);
        live.insert(entry.key);
      }
      ASSERT_EQ(ListedVideos(table), expected);
      for (const auto& [v, chunks] : rows) {
        live.insert(v);
        const uint32_t r = table.Find(v);
        ASSERT_NE(r, kNil);
        ASSERT_EQ(table.row_size(r), chunks.size());
        for (const auto& [chunk, handle] : chunks) {
          ASSERT_EQ(table.Get(r, chunk), handle);
        }
      }
      // Live records: the listed videos plus those kept by their rows.
      ASSERT_EQ(table.size(), live.size());
    }
  }
}

TEST(VideoTableTest, RowsGrowFrom8To256AndKeepTheirContents) {
  VideoTable table;
  const uint32_t r = table.Touch(7, 1.0).record;
  EXPECT_EQ(table.row_capacity(r), 0u);
  uint32_t expected_capacity = VideoTable::kMinRow;
  for (uint32_t chunk = 0; chunk < 256; ++chunk) {
    table.Set(r, chunk, 1000 + chunk);
    while (expected_capacity <= chunk) {
      expected_capacity *= 2;
    }
    ASSERT_EQ(table.row_capacity(r), expected_capacity) << chunk;
    for (uint32_t c = 0; c <= chunk; ++c) {
      ASSERT_EQ(table.Get(r, c), 1000 + c) << "after " << chunk;
    }
    ASSERT_EQ(table.Get(r, chunk + 1), kNil);
  }
  EXPECT_EQ(table.row_capacity(r), 256u);
  EXPECT_EQ(table.row_size(r), 256u);
  // A chunk far past the row grows it straight to the fitting capacity.
  const uint32_t s = table.Touch(8, 2.0).record;
  table.Set(s, 1000, 1);
  EXPECT_EQ(table.row_capacity(s), 1024u);
  EXPECT_EQ(table.Get(s, 1000), 1u);
}

TEST(VideoTableTest, FreedRowsAndRecordsAreReused) {
  VideoTable table;
  for (uint64_t v = 0; v < 16; ++v) {
    const uint32_t r = table.Touch(v, 1.0).record;
    for (uint32_t c = 0; c < 20; ++c) {  // 32-entry rows, after 8 and 16
      table.Set(r, c, c);
    }
  }
  const size_t records = table.record_slab_size();
  const size_t entries = table.row_array_size();
  for (uint64_t round = 0; round < 50; ++round) {
    for (uint64_t v = 0; v < 16; ++v) {
      const uint32_t r = table.Find(100 * round + v);
      ASSERT_NE(r, kNil);
      for (uint32_t c = 0; c < 20; ++c) {
        table.Erase(r, c);
      }
    }
    for (uint64_t v = 0; v < 16; ++v) {
      table.PopOldest();
    }
    ASSERT_EQ(table.size(), 0u);
    for (uint64_t v = 0; v < 16; ++v) {
      const uint32_t r = table.Touch(100 * (round + 1) + v, 2.0).record;
      for (uint32_t c = 0; c < 20; ++c) {
        table.Set(r, c, c);
      }
    }
    ASSERT_EQ(table.record_slab_size(), records);
    ASSERT_EQ(table.row_array_size(), entries);
  }
}

TEST(VideoTableTest, RecordIsFreedExactlyWhenUnlistedWithAnEmptyRow) {
  VideoTable table;
  const uint32_t r = table.Touch(1, 1.0).record;
  table.Set(r, 3, 42);
  // Listed with a row: live.
  table.Erase(r, 3);
  EXPECT_EQ(table.row_capacity(r), 0u);  // the emptied row is freed
  EXPECT_EQ(table.Find(1), r);           // but a listed record stays
  table.Set(r, 3, 42);
  // Off the list with a non-empty row: live, and not listed.
  table.PopOldest();
  EXPECT_EQ(table.Find(1), r);
  EXPECT_FALSE(table.is_listed(r));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.listed(), 0u);
  // A touch lists it again as a video not seen before.
  const VideoTable::Touched touched = table.Touch(1, 5.0);
  EXPECT_EQ(touched.record, r);
  EXPECT_FALSE(touched.listed);
  EXPECT_EQ(table.Get(r, 3), 42u);
  table.PopOldest();
  // The last entry of an unlisted record frees it.
  table.Erase(r, 3);
  EXPECT_EQ(table.Find(1), kNil);
  EXPECT_EQ(table.size(), 0u);
  // Listed with an empty row, popped: freed at once.
  table.Touch(2, 6.0);
  table.PopOldest();
  EXPECT_EQ(table.Find(2), kNil);
}

TEST(VideoTableTest, SteadyStateIsAllocationFree) {
  ASSERT_TRUE(util::AllocHookActive())
      << "this test must link vcdn_alloc_hook (see tests/CMakeLists.txt)";
  VideoTable table;
  table.Reserve(1 << 10, 1 << 14);
  util::Pcg32 rng(30);
  double now = 0.0;
  uint32_t handle = 0;
  // Touch a video, store a few chunks, and keep the list and the rows
  // bounded by popping and erasing the oldest.
  std::vector<std::pair<uint64_t, uint32_t>> stored;
  stored.reserve(1 << 16);
  size_t head = 0;
  auto step = [&] {
    now += 1.0;
    const uint64_t video = rng.Next64() % 4000;
    const uint32_t r = table.Touch(video, now).record;
    const uint32_t chunk = rng.NextBounded(64);
    if (table.Get(r, chunk) == kNil && stored.size() - head < 2000) {
      table.Set(r, chunk, handle++);
      if (stored.size() == stored.capacity()) {
        stored.erase(stored.begin(), stored.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      stored.emplace_back(video, chunk);
    }
    if (stored.size() - head >= 2000) {
      const auto [v, c] = stored[head++];
      table.Erase(table.Find(v), c);
    }
    while (table.listed() > 500) {
      table.PopOldest();
    }
  };
  for (size_t i = 0; i < 200'000; ++i) {
    step();
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 200'000; ++i) {
    step();
  }
  EXPECT_EQ(scope.Delta().allocations, 0u);
}

}  // namespace
}  // namespace vcdn::container
