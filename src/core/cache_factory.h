// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Factory for the cache algorithms evaluated in the paper, used by the
// simulator, the benches and the examples.

#ifndef VCDN_SRC_CORE_CACHE_FACTORY_H_
#define VCDN_SRC_CORE_CACHE_FACTORY_H_

#include <memory>
#include <string_view>

#include "src/core/cache_algorithm.h"

namespace vcdn::core {

enum class CacheKind {
  kXlru,     // Sec. 5
  kCafe,     // Sec. 6
  kPsychic,  // Sec. 8 (offline)
  kFillLru,  // classic always-fill LRU baseline
  kFillLfu,  // classic always-fill LFU baseline (aged frequencies)
  kBelady,   // offline Belady MIN replacement baseline
};

// Human-readable name matching CacheAlgorithm::name().
std::string_view CacheKindName(CacheKind kind);

// The name a command line gives `kind`: "xlru", "cafe", "psychic",
// "fill-lru", "fill-lfu" or "belady".
std::string_view CacheKindFlag(CacheKind kind);

std::unique_ptr<CacheAlgorithm> MakeCache(CacheKind kind, const CacheConfig& config);

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_CACHE_FACTORY_H_
