// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/cafe_cache.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/cache_test_util.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::SmallConfig;

TEST(CafeTest, FirstRequestForVideoIsRedirected) {
  CafeCache cache(SmallConfig(100));
  auto outcome = cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kRedirect);
  EXPECT_EQ(cache.used_chunks(), 0u);
}

TEST(CafeTest, PopularVideoGetsFilled) {
  CafeCache cache(SmallConfig(100));
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.filled_chunks, 4u);
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{7, 0}));
}

TEST(CafeTest, RepeatRequestsAreHits) {
  CafeCache cache(SmallConfig(100));
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(3.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.hit_chunks, 4u);
  EXPECT_EQ(outcome.filled_chunks, 0u);
}

TEST(CafeTest, VirtualKeyOrderingMatchesIatOrdering) {
  // Theorem 1 property: for random stat pairs, the fixed-T0 virtual keys
  // order chunks exactly as their IATs do, at any evaluation time.
  CafeOptions options;
  options.gamma = 0.25;
  const double gamma = options.gamma;
  auto iat_at = [&](double t_last, double dt, double t) {
    return gamma * (t - t_last) + (1.0 - gamma) * dt;
  };
  auto key_of = [&](double t_last, double dt) {
    return gamma * t_last - (1.0 - gamma) * dt;
  };
  struct Stat {
    double t_last;
    double dt;
  };
  std::vector<Stat> stats = {
      {100.0, 5.0}, {100.0, 50.0}, {90.0, 5.0}, {200.0, 1.0}, {150.0, 80.0}, {10.0, 0.5},
  };
  for (size_t i = 0; i < stats.size(); ++i) {
    for (size_t j = 0; j < stats.size(); ++j) {
      for (double t : {200.0, 500.0, 10000.0}) {
        bool key_less = key_of(stats[i].t_last, stats[i].dt) < key_of(stats[j].t_last, stats[j].dt);
        bool iat_greater =
            iat_at(stats[i].t_last, stats[i].dt, t) > iat_at(stats[j].t_last, stats[j].dt, t);
        EXPECT_EQ(key_less, iat_greater)
            << "i=" << i << " j=" << j << " t=" << t
            << ": virtual-timestamp order must equal IAT order at all times";
      }
    }
  }
}

TEST(CafeTest, EvictsLeastPopularChunk) {
  // Capacity 4: two hot chunks, two cold chunks; a new fill must evict cold.
  CafeCache cache(SmallConfig(4, /*alpha=*/1.0));
  // Warm up video 1 (chunks 0-1, requested every 1s -> very popular).
  cache.HandleRequest(ChunkRequest(0.0, 1, 0, 1));
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    cache.HandleRequest(ChunkRequest(t, 1, 0, 1));
  }
  // Video 2 (chunks 0-1) requested with period 5 -> less popular.
  cache.HandleRequest(ChunkRequest(2.5, 2, 0, 1));
  cache.HandleRequest(ChunkRequest(7.5, 2, 0, 1));  // filled; disk now full
  // Keep video 1 hot a bit more so IATs separate.
  cache.HandleRequest(ChunkRequest(11.0, 1, 0, 1));
  // Video 3 requested with period 1 -> very popular, needs 2 slots.
  cache.HandleRequest(ChunkRequest(11.2, 3, 0, 1));
  cache.HandleRequest(ChunkRequest(12.2, 3, 0, 1));
  cache.HandleRequest(ChunkRequest(13.2, 3, 0, 1));
  if (cache.ContainsChunk(ChunkId{3, 0})) {
    // Whenever video 3 was admitted, the cold video-2 chunks must have gone
    // first and hot video 1 stayed.
    EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, 0}));
    EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, 1}));
    EXPECT_FALSE(cache.ContainsChunk(ChunkId{2, 0}));
  } else {
    ADD_FAILURE() << "popular video 3 was never admitted";
  }
}

TEST(CafeTest, UnseenChunkInheritsVideoIat) {
  CacheConfig config = SmallConfig(100);
  CafeCache cache(config);
  // Chunks 0-1 of video 5 cached with IAT ~2s.
  cache.HandleRequest(ChunkRequest(0.0, 5, 0, 1));
  cache.HandleRequest(ChunkRequest(2.0, 5, 0, 1));
  cache.HandleRequest(ChunkRequest(4.0, 5, 0, 1));
  double estimate = cache.EstimateIat(ChunkId{5, 9}, 4.0);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GT(estimate, 0.0);
  EXPECT_LT(estimate, 10.0);
  // A chunk of an unknown video has no estimate.
  EXPECT_TRUE(std::isinf(cache.EstimateIat(ChunkId{777, 0}, 4.0)));
}

TEST(CafeTest, UnseenEstimateCanBeDisabled) {
  CafeOptions options;
  options.estimate_unseen_from_video = false;
  CafeCache cache(SmallConfig(100), options);
  cache.HandleRequest(ChunkRequest(0.0, 5, 0, 1));
  cache.HandleRequest(ChunkRequest(2.0, 5, 0, 1));
  EXPECT_TRUE(std::isinf(cache.EstimateIat(ChunkId{5, 9}, 3.0)));
}

TEST(CafeTest, RedirectStillUpdatesPopularity) {
  // Even while redirected, repeated requests build up history so the video
  // is eventually admitted.
  CafeCache cache(SmallConfig(100, /*alpha=*/2.0));
  bool admitted = false;
  for (double t = 0.0; t < 20.0; t += 1.0) {
    auto outcome = cache.HandleRequest(ChunkRequest(t, 9, 0, 1));
    if (outcome.decision == Decision::kServe) {
      admitted = true;
      break;
    }
  }
  EXPECT_TRUE(admitted) << "a video requested every second must eventually be admitted";
}

TEST(CafeTest, HigherAlphaRedirectsMore) {
  // Replay the same synthetic pattern at alpha 0.5 / 1 / 4 and check
  // monotonically non-increasing fill volume.
  auto fills_at = [](double alpha) {
    CafeCache cache(SmallConfig(32, alpha));
    uint64_t fills = 0;
    // 40 videos with periods 1..40 requesting 2 chunks each, over 200s.
    for (int tick = 0; tick < 200; ++tick) {
      for (int v = 1; v <= 40; ++v) {
        if (tick % v == 0) {
          auto outcome = cache.HandleRequest(
              ChunkRequest(static_cast<double>(tick) + 0.001 * v, static_cast<uint64_t>(v), 0, 1));
          fills += outcome.filled_chunks;
        }
      }
    }
    return fills;
  };
  uint64_t cheap = fills_at(0.5);
  uint64_t neutral = fills_at(1.0);
  uint64_t constrained = fills_at(4.0);
  EXPECT_GE(cheap, neutral);
  EXPECT_GE(neutral, constrained);
  EXPECT_GT(cheap, 0u);
}

TEST(CafeTest, DiskNeverExceedsCapacity) {
  CafeCache cache(SmallConfig(16, 1.0));
  double t = 0.0;
  for (int round = 0; round < 50; ++round) {
    for (trace::VideoId v = 1; v <= 10; ++v) {
      t += 1.0;
      cache.HandleRequest(ChunkRequest(t, v, 0, 3));
      ASSERT_LE(cache.used_chunks(), 16u);
    }
  }
}

TEST(CafeTest, RangeWiderThanDiskIsRedirected) {
  CafeCache cache(SmallConfig(4));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 7));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 1, 0, 7));
  EXPECT_EQ(outcome.decision, Decision::kRedirect);
}

TEST(CafeTest, HistoryIsGarbageCollected) {
  CafeCache cache(SmallConfig(4, 1.0));
  // Many one-shot videos create history entries.
  for (trace::VideoId v = 100; v < 300; ++v) {
    cache.HandleRequest(ChunkRequest(static_cast<double>(v - 100) * 0.1, v, 0, 0));
  }
  // A hot video keeps the cache churning with a small cache age.
  cache.HandleRequest(ChunkRequest(21.0, 1, 0, 3));
  cache.HandleRequest(ChunkRequest(22.0, 1, 0, 3));
  for (double t = 23.0; t < 200.0; t += 1.0) {
    cache.HandleRequest(ChunkRequest(t, 1, 0, 3));
  }
  EXPECT_LT(cache.tracked_history_chunks(), 50u);
}

TEST(CafeTest, DeterministicReplay) {
  auto run = [](std::vector<Decision>& decisions) {
    CafeCache cache(SmallConfig(8, 2.0));
    for (int i = 0; i < 300; ++i) {
      double t = static_cast<double>(i) * 0.7;
      trace::VideoId v = static_cast<trace::VideoId>(i % 9);
      auto outcome = cache.HandleRequest(ChunkRequest(t, v, 0, static_cast<uint32_t>(i % 4)));
      decisions.push_back(outcome.decision);
    }
  };
  std::vector<Decision> a;
  std::vector<Decision> b;
  run(a);
  run(b);
  EXPECT_EQ(a, b);
}

TEST(CafeTest, CacheAgeTracksLeastPopularChunk) {
  CafeCache cache(SmallConfig(100));
  EXPECT_DOUBLE_EQ(cache.CacheAge(10.0), 0.0);
  cache.HandleRequest(ChunkRequest(0.0, 1, 0, 0));
  cache.HandleRequest(ChunkRequest(5.0, 1, 0, 0));  // filled, dt ~ 5
  double age = cache.CacheAge(10.0);
  EXPECT_GT(age, 0.0);
  // Age grows as time passes without new requests.
  EXPECT_GT(cache.CacheAge(50.0), age);
}

}  // namespace
}  // namespace vcdn::core
