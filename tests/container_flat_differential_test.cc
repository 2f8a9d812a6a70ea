// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Differential tests for the flat hot-path containers against the node-based
// oracles in tests/oracles/: FlatLruMap vs LruMap and ScoreHeap vs
// RefScoreHeap are driven through ~1M mixed seeded operations asserting
// identical observable state after every step, then CafeCache (chunk table)
// is replayed against ReferenceCafeCache under the default, proactive and
// no-unseen-estimate options with interleaved Resize/DropContents, and
// XlruCache against ReferenceXlruCache at three disk sizes and against a
// golden digest. Finally, the counting allocator (vcdn_alloc_hook,
// linked into this test) asserts the flat containers and the xLRU and Cafe
// request paths perform zero heap allocations in steady state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
#include "src/core/cafe_cache.h"
#include "src/core/chunk.h"
#include "src/core/xlru_cache.h"
#include "src/sim/decision_digest.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"
#include "tests/oracles/lru_map.h"
#include "tests/oracles/ref_score_heap.h"
#include "tests/oracles/reference_cafe_cache.h"
#include "tests/oracles/reference_xlru_cache.h"

namespace vcdn {
namespace {

// ---------------------------------------------------------------------------
// FlatLruMap vs LruMap

void ExpectLruStateEqual(const container::FlatLruMap<uint64_t, uint64_t>& flat,
                         const container::LruMap<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto fit = flat.begin();
  auto rit = ref.begin();
  for (; fit != flat.end(); ++fit, ++rit) {
    ASSERT_EQ(fit->key, rit->key);
    ASSERT_EQ(fit->value, rit->value);
  }
}

TEST(FlatDifferentialTest, LruMapMatchesReferenceThroughMixedOps) {
  container::FlatLruMap<uint64_t, uint64_t> flat;
  container::LruMap<uint64_t, uint64_t> ref;
  flat.Reserve(1 << 14);
  ref.Reserve(1 << 14);
  util::Pcg32 rng(20260805);
  constexpr size_t kOps = 1'000'000;
  constexpr uint64_t kKeyRange = 1 << 14;
  for (size_t i = 0; i < kOps; ++i) {
    uint64_t key = rng.Next64() % kKeyRange;
    uint32_t op = rng.NextBounded(100);
    if (op < 50) {
      uint64_t value = rng.Next64();
      ASSERT_EQ(flat.InsertOrTouch(key, value), ref.InsertOrTouch(key, value));
    } else if (op < 68) {
      uint64_t* a = flat.GetAndTouch(key);
      uint64_t* b = ref.GetAndTouch(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 78) {
      const uint64_t* a = flat.Peek(key);
      const uint64_t* b = ref.Peek(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 83) {
      uint64_t* a = flat.PeekMut(key);
      uint64_t* b = ref.PeekMut(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        uint64_t value = rng.Next64();
        *a = value;
        *b = value;
      }
    } else if (op < 88) {
      ASSERT_EQ(flat.Contains(key), ref.Contains(key));
    } else if (op < 95) {
      ASSERT_EQ(flat.Erase(key), ref.Erase(key));
    } else if (op < 99) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        auto a = flat.PopOldest();
        auto b = ref.PopOldest();
        ASSERT_EQ(a.key, b.key);
        ASSERT_EQ(a.value, b.value);
      }
    } else if (rng.NextBounded(1000) == 0) {
      flat.Clear();
      ref.Clear();
    }
    if (!flat.empty()) {
      ASSERT_EQ(flat.Oldest().key, ref.Oldest().key);
      ASSERT_EQ(flat.Newest().key, ref.Newest().key);
    }
    if (i % 100'000 == 0) {
      ExpectLruStateEqual(flat, ref);
    }
  }
  ExpectLruStateEqual(flat, ref);
}

// ---------------------------------------------------------------------------
// ScoreHeap vs RefScoreHeap, both directions

template <typename FlatHeap, typename RefHeap>
void ExpectHeapOrderEqual(const FlatHeap& flat, const RefHeap& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  std::vector<std::pair<double, uint64_t>> flat_order;
  std::vector<std::pair<double, uint64_t>> ref_order;
  flat_order.reserve(flat.size());
  ref_order.reserve(ref.size());
  flat.ScanInOrder([&](const auto& item) {
    flat_order.push_back(item);
    return true;
  });
  ref.ScanInOrder([&](const auto& item) {
    ref_order.push_back(item);
    return true;
  });
  ASSERT_EQ(flat_order, ref_order);
}

template <bool kMaxFirst>
void RunScoreHeapDifferential(uint32_t seed) {
  container::ScoreHeap<uint64_t, double, std::hash<uint64_t>, kMaxFirst> flat;
  container::RefScoreHeap<uint64_t, double, std::hash<uint64_t>, kMaxFirst> ref;
  flat.Reserve(1 << 12);
  ref.Reserve(1 << 12);
  util::Pcg32 rng(seed);
  constexpr size_t kOps = 400'000;
  constexpr uint64_t kIdRange = 1 << 12;
  for (size_t i = 0; i < kOps; ++i) {
    uint64_t id = rng.Next64() % kIdRange;
    // Coarse scores force frequent ties so the (score, id) tie-break is
    // exercised hard.
    double score = static_cast<double>(rng.NextBounded(256));
    uint32_t op = rng.NextBounded(100);
    if (op < 45) {
      ASSERT_EQ(flat.InsertOrUpdate(id, score), ref.InsertOrUpdate(id, score));
    } else if (op < 60) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id));
    } else if (op < 70) {
      const double* a = flat.GetScore(id);
      const double* b = ref.GetScore(id);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (op < 75) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id));
    } else if (op < 85) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        ASSERT_EQ(flat.Top(), ref.Top());
      }
    } else if (op < 97) {
      ASSERT_EQ(flat.empty(), ref.empty());
      if (!flat.empty()) {
        ASSERT_EQ(flat.PopTop(), ref.PopTop());
      }
    } else {
      // Victim-selection shape: the first 8 items in order must agree.
      std::vector<std::pair<double, uint64_t>> a;
      std::vector<std::pair<double, uint64_t>> b;
      flat.ScanInOrder([&](const auto& item) {
        a.push_back(item);
        return a.size() < 8;
      });
      ref.ScanInOrder([&](const auto& item) {
        b.push_back(item);
        return b.size() < 8;
      });
      ASSERT_EQ(a, b);
    }
    if (i == kOps / 2) {
      flat.Clear();
      ref.Clear();
    }
    if (i % 50'000 == 0) {
      ExpectHeapOrderEqual(flat, ref);
    }
  }
  ExpectHeapOrderEqual(flat, ref);
}

TEST(FlatDifferentialTest, MinScoreHeapMatchesRefScoreHeap) {
  RunScoreHeapDifferential<false>(11);
}

TEST(FlatDifferentialTest, MaxScoreHeapMatchesRefScoreHeap) {
  RunScoreHeapDifferential<true>(12);
}

// ---------------------------------------------------------------------------
// Cache-level replays: Cafe against its oracle, xLRU against a golden digest

trace::Request SkewedRequest(util::Pcg32& rng, uint64_t videos, double time) {
  trace::Request r;
  r.video = std::min(rng.Next64() % videos, rng.Next64() % videos);
  uint64_t start_chunk = rng.NextBounded(16);
  uint64_t len_chunks = 1 + rng.NextBounded(8);
  r.byte_begin = start_chunk * core::kDefaultChunkBytes;
  r.byte_end = (start_chunk + len_chunks) * core::kDefaultChunkBytes - 1;
  r.arrival_time = time;
  return r;
}

// Arrival gap of request i: busy and quiet phases alternate every 4000
// requests, so a proactive Cafe sees off-peak windows to prefetch in (its
// smoothed rate drops well below the decaying peak).
double ArrivalGap(size_t i) { return (i / 4000) % 2 == 0 ? 0.05 : 0.25; }

core::CacheConfig DifferentialConfig() {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = 4096;
  config.alpha_f2r = 2.0;
  return config;
}

constexpr size_t kReplayRequests = 60'000;

// Structural events mid-replay, applied after request i to a cache built
// with `capacity` chunks: shrink (EvictDownTo victim order matters), grow
// back, cold restart. Returns the chunks they evicted (0 when no event is
// due).
uint64_t StructuralEvent(core::CacheAlgorithm& cache, size_t i,
                         uint64_t capacity = DifferentialConfig().disk_capacity_chunks) {
  if (i == kReplayRequests / 4) {
    return cache.Resize(capacity * 3 / 4);
  }
  if (i == kReplayRequests / 2) {
    return cache.Resize(capacity);
  }
  if (i == kReplayRequests * 3 / 4) {
    return cache.DropContents();
  }
  return 0;
}

// Replays one seeded stream through both caches, asserting equal outcomes
// per request; adds the proactively filled chunks (equal on both sides) to
// *proactive_filled when given.
void RunCacheDifferential(core::CafeCache& flat, core::ReferenceCafeCache& ref, uint32_t seed,
                          uint64_t* proactive_filled = nullptr) {
  util::Pcg32 rng(seed);
  double t = 0.0;
  for (size_t i = 1; i <= kReplayRequests; ++i) {
    t += ArrivalGap(i);
    trace::Request r = SkewedRequest(rng, 4000, t);
    core::RequestOutcome a = flat.HandleRequest(r);
    core::RequestOutcome b = ref.HandleRequest(r);
    ASSERT_EQ(a.decision, b.decision) << "request " << i;
    ASSERT_EQ(a.filled_chunks, b.filled_chunks) << "request " << i;
    ASSERT_EQ(a.evicted_chunks, b.evicted_chunks) << "request " << i;
    ASSERT_EQ(a.hit_chunks, b.hit_chunks) << "request " << i;
    ASSERT_EQ(a.proactive_filled_chunks, b.proactive_filled_chunks) << "request " << i;
    if (proactive_filled != nullptr) {
      *proactive_filled += a.proactive_filled_chunks;
    }
    if (i % 997 == 0) {
      core::ChunkRange range = core::ToChunkRange(r, core::kDefaultChunkBytes);
      for (uint32_t c = range.first; c <= range.last; ++c) {
        core::ChunkId chunk{r.video, c};
        ASSERT_EQ(flat.ContainsChunk(chunk), ref.ContainsChunk(chunk)) << "request " << i;
      }
    }
    ASSERT_EQ(StructuralEvent(flat, i), StructuralEvent(ref, i)) << "request " << i;
    ASSERT_EQ(flat.used_chunks(), ref.used_chunks()) << "request " << i;
    if (i == kReplayRequests * 3 / 4) {
      ASSERT_EQ(flat.used_chunks(), 0u);
    }
  }
}

// XlruCache is xLRU's only implementation, so its replay is pinned to
// constants instead of an oracle: the seed-21 stream and structural events
// that once ran it against an LruMap-based instantiation, recorded while
// both instantiations existed and agreed. Each request folds its outcome,
// then the cache's occupancy and any structural evictions (through the
// wire-side spelling, decision and tier 0).
TEST(FlatDifferentialTest, XlruReplayMatchesGoldenDigest) {
  core::XlruCache cache(DifferentialConfig());
  util::Pcg32 rng(21);
  sim::OutcomeDigest digest;
  double t = 0.0;
  for (size_t i = 1; i <= kReplayRequests; ++i) {
    t += ArrivalGap(i);
    digest.Fold(cache.HandleRequest(SkewedRequest(rng, 4000, t)));
    const uint64_t evicted = StructuralEvent(cache, i);
    digest.FoldFields(0, 0, cache.used_chunks(), 0, 0, static_cast<uint32_t>(evicted));
  }
  EXPECT_EQ(digest.value(), 0xfb7850d59844ee60ULL);
  EXPECT_EQ(cache.tracked_videos(), 2002u);
}

// XlruCache against Fig. 1 written literally on LruMaps, on the Cafe case's
// busy/quiet stream with the same structural events, at a disk that churns
// hard, the default one, and one that the stream barely fills.
TEST(FlatDifferentialTest, XlruMatchesReferenceReplay) {
  for (uint64_t capacity : {uint64_t{512}, uint64_t{4096}, uint64_t{32768}}) {
    SCOPED_TRACE(capacity);
    core::CacheConfig config = DifferentialConfig();
    config.disk_capacity_chunks = capacity;
    core::XlruCache flat(config);
    core::ReferenceXlruCache ref(config);
    util::Pcg32 rng(25);
    double t = 0.0;
    uint64_t served = 0;
    for (size_t i = 1; i <= kReplayRequests; ++i) {
      t += ArrivalGap(i);
      const trace::Request r = SkewedRequest(rng, 4000, t);
      const core::RequestOutcome a = flat.HandleRequest(r);
      const core::RequestOutcome b = ref.HandleRequest(r);
      ASSERT_EQ(a.decision, b.decision) << "request " << i;
      ASSERT_EQ(a.hit_chunks, b.hit_chunks) << "request " << i;
      ASSERT_EQ(a.filled_chunks, b.filled_chunks) << "request " << i;
      ASSERT_EQ(a.evicted_chunks, b.evicted_chunks) << "request " << i;
      served += a.decision == core::Decision::kServe ? 1 : 0;
      ASSERT_EQ(flat.used_chunks(), ref.used_chunks()) << "request " << i;
      ASSERT_EQ(flat.tracked_videos(), ref.tracked_videos()) << "request " << i;
      ASSERT_EQ(flat.CacheAge(t), ref.CacheAge(t)) << "request " << i;
      if (i % 997 == 0) {
        const core::ChunkRange range = core::ToChunkRange(r, core::kDefaultChunkBytes);
        for (uint32_t c = range.first; c <= range.last; ++c) {
          ASSERT_EQ(flat.ContainsChunk({r.video, c}), ref.ContainsChunk({r.video, c}))
              << "request " << i;
        }
      }
      ASSERT_EQ(StructuralEvent(flat, i, capacity), StructuralEvent(ref, i, capacity))
          << "request " << i;
      ASSERT_EQ(flat.used_chunks(), ref.used_chunks()) << "request " << i;
    }
    // Both decisions must occur, or one of the paths went untested.
    EXPECT_GT(served, 0u);
    EXPECT_LT(served, kReplayRequests);
  }
}

// Cafe option sets the chunk table must reproduce: the defaults, the
// proactive candidate heap (Sec. 10), and the unseen-chunk estimate turned
// off (never-seen chunks then cost nothing to redirect).
struct CafeVariant {
  const char* label;
  core::CafeOptions options;
};

std::vector<CafeVariant> CafeVariants() {
  core::CafeOptions proactive;
  proactive.proactive = true;
  core::CafeOptions no_unseen_estimate;
  no_unseen_estimate.estimate_unseen_from_video = false;
  return {{"defaults", core::CafeOptions{}},
          {"proactive", proactive},
          {"no unseen estimate", no_unseen_estimate}};
}

// Cafe's video records over a long churning stream: a record lives exactly
// while its video is on the seen list or still tracks a chunk, so the live
// records equal the listed videos plus the forgotten videos that still track
// chunks, counted on the oracle's separate maps. Some videos must be
// forgotten while tracking chunks, or the record's second reason to live
// went untested.
TEST(FlatDifferentialTest, CafeVideoRecordsLiveWhileListedOrTrackingChunks) {
  core::CacheConfig config = DifferentialConfig();
  config.disk_capacity_chunks = 1024;
  core::CafeCache flat(config);
  core::ReferenceCafeCache ref(config);
  util::Pcg32 rng(26);
  double t = 0.0;
  bool forgotten_tracking = false;
  for (size_t i = 1; i <= 200'000; ++i) {
    t += ArrivalGap(i);
    const trace::Request r = SkewedRequest(rng, 8000, t);
    ASSERT_EQ(flat.HandleRequest(r).decision, ref.HandleRequest(r).decision) << "request " << i;
    if (i % 1000 == 0) {
      ASSERT_EQ(flat.tracked_videos(), ref.tracked_videos()) << "request " << i;
      ASSERT_EQ(flat.video_records(), ref.video_records()) << "request " << i;
      forgotten_tracking = forgotten_tracking || flat.video_records() > flat.tracked_videos();
    }
  }
  EXPECT_TRUE(forgotten_tracking);
}

TEST(FlatDifferentialTest, CafeFlatMatchesReferenceReplay) {
  for (const CafeVariant& variant : CafeVariants()) {
    SCOPED_TRACE(variant.label);
    core::CafeCache flat(DifferentialConfig(), variant.options);
    core::ReferenceCafeCache ref(DifferentialConfig(), variant.options);
    uint64_t proactive_filled = 0;
    RunCacheDifferential(flat, ref, 22, &proactive_filled);
    if (HasFatalFailure()) {
      return;
    }
    EXPECT_EQ(flat.tracked_history_chunks(), ref.tracked_history_chunks());
    EXPECT_EQ(flat.CacheAge(5000.0), ref.CacheAge(5000.0));
    // The quiet phases must actually trigger prefetches, or the candidate
    // heap would go untested.
    EXPECT_EQ(proactive_filled > 0, variant.options.proactive);
  }
}

// ---------------------------------------------------------------------------
// Batched admission at the cache level: HandleRequestBatch vs HandleRequest

template <typename Cache>
void RunBatchVsSingleDifferential(Cache& batched, Cache& single, uint32_t seed,
                                  size_t batch_size) {
  util::Pcg32 rng(seed);
  constexpr size_t kRequests = 40'000;
  std::vector<trace::Request> window(batch_size);
  std::vector<core::RequestOutcome> outcomes(batch_size);
  double t = 0.0;
  for (size_t done = 0; done < kRequests;) {
    // Odd remainders included: the last window is a partial batch.
    size_t n = std::min(batch_size, kRequests - done);
    for (size_t i = 0; i < n; ++i) {
      t += 0.05;
      window[i] = SkewedRequest(rng, 4000, t);
    }
    batched.HandleRequestBatch(window.data(), n, outcomes.data());
    for (size_t i = 0; i < n; ++i) {
      core::RequestOutcome expected = single.HandleRequest(window[i]);
      ASSERT_EQ(outcomes[i].decision, expected.decision) << "request " << done + i;
      ASSERT_EQ(outcomes[i].hit_chunks, expected.hit_chunks) << "request " << done + i;
      ASSERT_EQ(outcomes[i].filled_chunks, expected.filled_chunks) << "request " << done + i;
      ASSERT_EQ(outcomes[i].evicted_chunks, expected.evicted_chunks) << "request " << done + i;
    }
    done += n;
    ASSERT_EQ(batched.used_chunks(), single.used_chunks()) << "after " << done;
  }
}

TEST(FlatDifferentialTest, CafeBatchedAdmissionMatchesSingleRequests) {
  // The batched entry point (the base class's loop) must be
  // outcome-identical to one-at-a-time admission.
  for (size_t batch_size : {size_t{3}, size_t{16}, size_t{33}}) {
    core::CafeCache batched(DifferentialConfig());
    core::CafeCache single(DifferentialConfig());
    RunBatchVsSingleDifferential(batched, single, 23, batch_size);
    EXPECT_EQ(batched.tracked_history_chunks(), single.tracked_history_chunks());
    EXPECT_EQ(batched.CacheAge(5000.0), single.CacheAge(5000.0));
  }
}

TEST(FlatDifferentialTest, XlruBatchedAdmissionMatchesSingleRequests) {
  // xLRU uses the default HandleRequestBatchImpl loop; this pins the
  // CacheAlgorithm choke-point contract for non-overriding algorithms.
  core::XlruCache batched(DifferentialConfig());
  core::XlruCache single(DifferentialConfig());
  RunBatchVsSingleDifferential(batched, single, 24, 16);
  EXPECT_EQ(batched.tracked_videos(), single.tracked_videos());
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations (counting operator new from vcdn_alloc_hook)

TEST(FlatAllocationTest, HookIsLinked) {
  ASSERT_TRUE(util::AllocHookActive())
      << "this test must link vcdn_alloc_hook (see tests/CMakeLists.txt)";
  util::AllocScope scope;
  // Direct operator-new call: a plain new-expression may legally be elided.
  void* p = ::operator new(64);
  EXPECT_GE(scope.Delta().allocations, 1u);
  EXPECT_GE(scope.Delta().bytes, 64u);
  ::operator delete(p);
}

TEST(FlatAllocationTest, FlatLruMapSteadyStateIsAllocationFree) {
  container::FlatLruMap<uint64_t, uint64_t> map;
  map.Reserve(1 << 12);
  util::Pcg32 rng(31);
  constexpr uint64_t kKeyRange = 1 << 12;
  // Warm-up: populate to the working-set size.
  for (size_t i = 0; i < 50'000; ++i) {
    map.InsertOrTouch(rng.Next64() % kKeyRange, i);
    if (map.size() > (kKeyRange * 3) / 4) {
      map.PopOldest();
    }
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 200'000; ++i) {
    uint64_t key = rng.Next64() % kKeyRange;
    map.InsertOrTouch(key, i);
    (void)map.GetAndTouch(rng.Next64() % kKeyRange);
    (void)map.Peek(rng.Next64() % kKeyRange);
    if (map.size() > (kKeyRange * 3) / 4) {
      map.PopOldest();
    }
    if (rng.NextBounded(8) == 0) {
      map.Erase(rng.Next64() % kKeyRange);
    }
  }
  EXPECT_EQ(scope.Delta().allocations, 0u);
}

TEST(FlatAllocationTest, ScoreHeapSteadyStateIsAllocationFree) {
  container::ScoreHeap<uint64_t, double> heap;
  heap.Reserve(1 << 12);
  util::Pcg32 rng(32);
  constexpr uint64_t kIdRange = 1 << 12;
  for (size_t i = 0; i < 50'000; ++i) {
    heap.InsertOrUpdate(rng.Next64() % kIdRange, rng.NextDouble());
    if (heap.size() > (kIdRange * 3) / 4) {
      heap.PopTop();
    }
  }
  // One full scan sizes the reusable scan scratch before measurement.
  size_t items = 0;
  heap.ScanInOrder([&](const auto&) {
    ++items;
    return true;
  });
  ASSERT_EQ(items, heap.size());
  util::AllocScope scope;
  for (size_t i = 0; i < 200'000; ++i) {
    heap.InsertOrUpdate(rng.Next64() % kIdRange, rng.NextDouble());
    if (heap.size() > (kIdRange * 3) / 4) {
      heap.PopTop();
    }
    if (rng.NextBounded(16) == 0) {
      size_t visited = 0;
      heap.ScanInOrder([&](const auto&) { return ++visited < 8; });
    }
    if (rng.NextBounded(8) == 0) {
      heap.Erase(rng.Next64() % kIdRange);
    }
  }
  EXPECT_EQ(scope.Delta().allocations, 0u);
}

TEST(FlatAllocationTest, XlruRequestPathSteadyStateIsAllocationFree) {
  core::CacheConfig config = DifferentialConfig();
  config.disk_capacity_chunks = 1 << 14;
  core::XlruCache cache(config);
  util::Pcg32 rng(33);
  double t = 0.0;
  // Warm-up: fill the disk and grow the request scratch to its peak.
  for (size_t i = 0; i < 200'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 8000, t));
  }
  util::AllocScope scope;
  for (size_t i = 0; i < 100'000; ++i) {
    t += 0.01;
    cache.HandleRequest(SkewedRequest(rng, 8000, t));
  }
  EXPECT_EQ(scope.Delta().allocations, 0u) << "xLRU steady state must not allocate per request";
}

// Allocation-test arrival gap: busy and quiet phases alternate every 20000
// requests, so the proactive variant prefetches in the quiet ones.
double AllocationTestGap(size_t i) { return (i / 20'000) % 2 == 0 ? 0.01 : 0.05; }

TEST(FlatAllocationTest, CafeRequestPathSteadyStateIsAllocationFree) {
  // The Cafe request path -- chunk-table classification, EWMA updates,
  // history transitions, victim scans, the video table's rows, periodic
  // CleanupHistory and, in the proactive variant, the candidate heap and
  // off-peak fills -- must reach a fixed working set: after warm-up,
  // single-request admission performs zero heap allocations.
  for (bool proactive : {false, true}) {
    SCOPED_TRACE(proactive ? "proactive" : "defaults");
    core::CacheConfig config = DifferentialConfig();
    config.disk_capacity_chunks = 1 << 13;
    core::CafeOptions options;
    options.proactive = proactive;
    core::CafeCache cache(config, options);
    util::Pcg32 rng(34);
    double t = 0.0;
    size_t i = 0;
    // Warm-up: fill disk + history and grow every slab/scratch to its peak
    // (CleanupHistory bounds the history, so the footprint converges).
    for (; i < 300'000; ++i) {
      t += AllocationTestGap(i);
      cache.HandleRequest(SkewedRequest(rng, 6000, t));
    }
    uint64_t proactive_filled = 0;
    util::AllocScope scope;
    for (; i < 400'000; ++i) {
      t += AllocationTestGap(i);
      proactive_filled += cache.HandleRequest(SkewedRequest(rng, 6000, t)).proactive_filled_chunks;
    }
    EXPECT_EQ(scope.Delta().allocations, 0u)
        << "Cafe steady state must not allocate per request";
    EXPECT_EQ(proactive_filled > 0, proactive);
  }
}

TEST(FlatAllocationTest, CafeBatchedRequestPathSteadyStateIsAllocationFree) {
  // Same contract through the batched entry point: the outcome buffer and
  // per-request scratch are reused across calls.
  for (bool proactive : {false, true}) {
    SCOPED_TRACE(proactive ? "proactive" : "defaults");
    core::CacheConfig config = DifferentialConfig();
    config.disk_capacity_chunks = 1 << 13;
    core::CafeOptions options;
    options.proactive = proactive;
    core::CafeCache cache(config, options);
    util::Pcg32 rng(35);
    constexpr size_t kBatch = 16;
    std::vector<trace::Request> window(kBatch);
    std::vector<core::RequestOutcome> outcomes(kBatch);
    double t = 0.0;
    size_t request = 0;
    uint64_t proactive_filled = 0;
    auto run = [&](size_t batches) {
      for (size_t b = 0; b < batches; ++b) {
        for (size_t i = 0; i < kBatch; ++i) {
          t += AllocationTestGap(request++);
          window[i] = SkewedRequest(rng, 6000, t);
        }
        cache.HandleRequestBatch(window.data(), kBatch, outcomes.data());
        for (size_t i = 0; i < kBatch; ++i) {
          proactive_filled += outcomes[i].proactive_filled_chunks;
        }
      }
    };
    run(20'000);  // warm-up
    proactive_filled = 0;
    util::AllocScope scope;
    run(8'000);
    EXPECT_EQ(scope.Delta().allocations, 0u)
        << "batched Cafe steady state must not allocate per request";
    EXPECT_EQ(proactive_filled > 0, proactive);
  }
}

}  // namespace
}  // namespace vcdn
