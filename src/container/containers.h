// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Container policies for xLRU: XlruCacheT is templated on one of these so
// the same algorithm code runs on the flat hot-path FlatLruMap (the
// default) or on the node-based reference LruMap.
//
// Both instantiations are compiled and kept: bench_replay_throughput replays
// the same workload on both and reports the speedup next to a FleetDigest
// equality check, and the differential tests drive the pair through
// randomized request streams (including Resize/DropContents) asserting
// identical outcomes. The reference policy is the frozen seed baseline --
// changing its behavior invalidates the perf trajectory in
// BENCH_hotpath.json.
//
// Cafe is not templated: CafeCache keeps every tracked chunk in its own
// chunk table (src/core/cafe_cache.h), and its oracle, ReferenceCafeCache
// (src/core/reference_cafe_cache.h), uses the node-based containers
// directly.

#ifndef VCDN_SRC_CONTAINER_CONTAINERS_H_
#define VCDN_SRC_CONTAINER_CONTAINERS_H_

#include <functional>
#include <string_view>

#include "src/container/flat_lru_map.h"
#include "src/container/lru_map.h"

namespace vcdn::container {

// Flat, index-linked, allocation-free in steady state. The production choice.
struct FlatContainers {
  static constexpr std::string_view kLabel = "flat";
  template <typename K, typename V, typename H = std::hash<K>>
  using LruMapT = FlatLruMap<K, V, H>;
};

// std::list + std::unordered_map, as in the seed implementation.
struct ReferenceContainers {
  static constexpr std::string_view kLabel = "reference";
  template <typename K, typename V, typename H = std::hash<K>>
  using LruMapT = LruMap<K, V, H>;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_CONTAINERS_H_
