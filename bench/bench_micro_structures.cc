// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Micro-benchmarks of the hot data structures and cache request paths: the
// O(1) LRU map (Sec. 5's linked list + hash map as one flat slab), the
// indexed ScoreHeap that stands in for Sec. 6's binary tree + hash map, and
// end-to-end HandleRequest throughput of xLRU and Cafe. These verify the
// complexity claims (O(1) / O(log n)) hold in practice at cache-server
// scale; end-to-end replay speed is measured by the repository benchmark
// (perfbench/, BENCHMARK.json).

#include <benchmark/benchmark.h>

#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
#include "src/core/cafe_cache.h"
#include "src/core/chunk.h"
#include "src/core/xlru_cache.h"
#include "src/util/rng.h"

namespace vcdn {
namespace {

void BM_FlatLruMapInsertTouch(benchmark::State& state) {
  container::FlatLruMap<uint64_t, double> map;
  uint64_t range = static_cast<uint64_t>(state.range(0));
  map.Reserve(range / 2 + 1);
  util::Pcg32 rng(1);
  for (auto _ : state) {
    map.InsertOrTouch(rng.Next64() % range, 1.0);
    if (map.size() > range / 2) {
      map.PopOldest();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatLruMapInsertTouch)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_FlatLruMapGetAndTouch(benchmark::State& state) {
  container::FlatLruMap<uint64_t, double> map;
  uint64_t range = static_cast<uint64_t>(state.range(0));
  map.Reserve(range);
  for (uint64_t k = 0; k < range; ++k) {
    map.InsertOrTouch(k, 1.0);
  }
  util::Pcg32 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.GetAndTouch(rng.Next64() % range));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatLruMapGetAndTouch)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScoreHeapInsertUpdate(benchmark::State& state) {
  container::ScoreHeap<uint64_t, double> heap;
  uint64_t range = static_cast<uint64_t>(state.range(0));
  heap.Reserve(range / 2 + 1);
  util::Pcg32 rng(2);
  for (auto _ : state) {
    heap.InsertOrUpdate(rng.Next64() % range, rng.NextDouble());
    if (heap.size() > range / 2) {
      heap.PopTop();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreHeapInsertUpdate)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ScoreHeapScanInOrder(benchmark::State& state) {
  container::ScoreHeap<uint64_t, double> heap;
  uint64_t range = static_cast<uint64_t>(state.range(0));
  heap.Reserve(range);
  util::Pcg32 rng(5);
  for (uint64_t k = 0; k < range; ++k) {
    heap.InsertOrUpdate(k, rng.NextDouble());
  }
  for (auto _ : state) {
    // Victim-selection shape: visit the 8 least-score items in order.
    size_t visited = 0;
    heap.ScanInOrder([&](const auto& item) {
      benchmark::DoNotOptimize(item);
      return ++visited < 8;
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreHeapScanInOrder)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

core::CacheConfig MicroConfig(uint64_t capacity) {
  core::CacheConfig config;
  config.chunk_bytes = 2ull << 20;
  config.disk_capacity_chunks = capacity;
  config.alpha_f2r = 2.0;
  return config;
}

trace::Request RandomRequest(util::Pcg32& rng, uint64_t videos) {
  trace::Request r;
  // Zipf-ish skew via min of two uniforms.
  r.video = std::min(rng.Next64() % videos, rng.Next64() % videos);
  uint64_t start_chunk = rng.NextBounded(16);
  uint64_t len_chunks = 1 + rng.NextBounded(8);
  r.byte_begin = start_chunk * (2ull << 20);
  r.byte_end = (start_chunk + len_chunks) * (2ull << 20) - 1;
  return r;
}

void BM_XlruHandleRequest(benchmark::State& state) {
  core::XlruCache cache(MicroConfig(static_cast<uint64_t>(state.range(0))));
  util::Pcg32 rng(3);
  double t = 0.0;
  for (auto _ : state) {
    trace::Request r = RandomRequest(rng, 20000);
    t += 0.01;
    r.arrival_time = t;
    benchmark::DoNotOptimize(cache.HandleRequest(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XlruHandleRequest)->Arg(1 << 14)->Arg(1 << 17);

void BM_CafeHandleRequest(benchmark::State& state) {
  core::CafeCache cache(MicroConfig(static_cast<uint64_t>(state.range(0))));
  util::Pcg32 rng(4);
  double t = 0.0;
  for (auto _ : state) {
    trace::Request r = RandomRequest(rng, 20000);
    t += 0.01;
    r.arrival_time = t;
    benchmark::DoNotOptimize(cache.HandleRequest(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CafeHandleRequest)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace
}  // namespace vcdn

BENCHMARK_MAIN();
