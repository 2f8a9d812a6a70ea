// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/baseline_caches.h"

#include <gtest/gtest.h>

#include "src/core/cache_factory.h"
#include "tests/cache_test_util.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkReq;
using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::MakeTrace;
using ::vcdn::testing::SmallConfig;

TEST(AlwaysFillLruTest, ServesAndFillsEverything) {
  AlwaysFillLruCache cache(SmallConfig(100));
  auto outcome = cache.HandleRequest(ChunkRequest(1.0, 1, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(outcome.filled_chunks, 4u);
  outcome = cache.HandleRequest(ChunkRequest(2.0, 1, 0, 3));
  EXPECT_EQ(outcome.hit_chunks, 4u);
}

TEST(AlwaysFillLruTest, OnlyRedirectsOversizedRanges) {
  AlwaysFillLruCache cache(SmallConfig(4));
  EXPECT_EQ(cache.HandleRequest(ChunkRequest(1.0, 1, 0, 7)).decision, Decision::kRedirect);
  EXPECT_EQ(cache.HandleRequest(ChunkRequest(2.0, 1, 0, 3)).decision, Decision::kServe);
}

TEST(AlwaysFillLruTest, LruEviction) {
  AlwaysFillLruCache cache(SmallConfig(4));
  cache.HandleRequest(ChunkRequest(1.0, 1, 0, 1));
  cache.HandleRequest(ChunkRequest(2.0, 2, 0, 1));
  cache.HandleRequest(ChunkRequest(3.0, 1, 0, 1));  // touch video 1
  cache.HandleRequest(ChunkRequest(4.0, 3, 0, 1));  // evicts video 2
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, 0}));
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{2, 0}));
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{3, 0}));
}

TEST(BeladyTest, EvictsChunkRequestedFarthestInFuture) {
  trace::Trace trace = MakeTrace({
      {1.0, 1, 0, 0},
      {2.0, 2, 0, 0},
      {3.0, 3, 0, 0},  // capacity 2: must evict 1 or 2
      {4.0, 1, 0, 0},  // video 1 needed sooner
      {9.0, 2, 0, 0},  // video 2 needed later -> Belady evicts it at t=3
  });
  BeladyCache cache(SmallConfig(2));
  cache.Prepare(trace);
  cache.HandleRequest(trace.requests[0]);
  cache.HandleRequest(trace.requests[1]);
  cache.HandleRequest(trace.requests[2]);
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{1, 0}));
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{2, 0}));
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{3, 0}));
}

TEST(BeladyTest, NeverRequestedAgainIsFirstVictim) {
  trace::Trace trace = MakeTrace({
      {1.0, 1, 0, 0},  // never again
      {2.0, 2, 0, 0},  // again at 4
      {3.0, 3, 0, 0},
      {4.0, 2, 0, 0},
  });
  BeladyCache cache(SmallConfig(2));
  cache.Prepare(trace);
  cache.HandleRequest(trace.requests[0]);
  cache.HandleRequest(trace.requests[1]);
  cache.HandleRequest(trace.requests[2]);
  EXPECT_FALSE(cache.ContainsChunk(ChunkId{1, 0}));
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{2, 0}));
}

TEST(BeladyTest, RequiresPrepare) {
  BeladyCache cache(SmallConfig(2));
  EXPECT_DEATH(cache.HandleRequest(ChunkRequest(1.0, 1, 0, 0, 1024)), "Prepare");
}

TEST(CacheFactoryTest, CreatesAllKinds) {
  CacheConfig config = SmallConfig(8);
  for (CacheKind kind : {CacheKind::kXlru, CacheKind::kCafe, CacheKind::kPsychic,
                         CacheKind::kFillLru, CacheKind::kBelady}) {
    auto cache = MakeCache(kind, config);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->name(), CacheKindName(kind));
    EXPECT_EQ(cache->used_chunks(), 0u);
  }
}

TEST(CacheFactoryTest, NamesMatchPaper) {
  EXPECT_EQ(CacheKindName(CacheKind::kXlru), "xLRU");
  EXPECT_EQ(CacheKindName(CacheKind::kCafe), "Cafe");
  EXPECT_EQ(CacheKindName(CacheKind::kPsychic), "Psychic");
}

TEST(CacheFactoryTest, CommandLineSpellings) {
  EXPECT_EQ(CacheKindFlag(CacheKind::kXlru), "xlru");
  EXPECT_EQ(CacheKindFlag(CacheKind::kCafe), "cafe");
  EXPECT_EQ(CacheKindFlag(CacheKind::kPsychic), "psychic");
  EXPECT_EQ(CacheKindFlag(CacheKind::kFillLru), "fill-lru");
  EXPECT_EQ(CacheKindFlag(CacheKind::kFillLfu), "fill-lfu");
  EXPECT_EQ(CacheKindFlag(CacheKind::kBelady), "belady");
}

}  // namespace
}  // namespace vcdn::core
