// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/cache_factory.h"

#include <iterator>

#include "src/core/baseline_caches.h"
#include "src/core/cafe_cache.h"
#include "src/core/psychic_cache.h"
#include "src/core/xlru_cache.h"
#include "src/util/check.h"

namespace vcdn::core {

std::string_view CacheKindName(CacheKind kind) {
  switch (kind) {
    case CacheKind::kXlru:
      return "xLRU";
    case CacheKind::kCafe:
      return "Cafe";
    case CacheKind::kPsychic:
      return "Psychic";
    case CacheKind::kFillLru:
      return "FillLRU";
    case CacheKind::kFillLfu:
      return "FillLFU";
    case CacheKind::kBelady:
      return "Belady";
  }
  return "unknown";
}

std::string_view CacheKindFlag(CacheKind kind) {
  static constexpr std::string_view kFlags[] = {"xlru",     "cafe",     "psychic",
                                                "fill-lru", "fill-lfu", "belady"};
  static_assert(std::size(kFlags) == static_cast<size_t>(CacheKind::kBelady) + 1);
  return kFlags[static_cast<size_t>(kind)];
}

std::unique_ptr<CacheAlgorithm> MakeCache(CacheKind kind, const CacheConfig& config) {
  switch (kind) {
    case CacheKind::kXlru:
      return std::make_unique<XlruCache>(config);
    case CacheKind::kCafe:
      return std::make_unique<CafeCache>(config);
    case CacheKind::kPsychic:
      return std::make_unique<PsychicCache>(config);
    case CacheKind::kFillLru:
      return std::make_unique<AlwaysFillLruCache>(config);
    case CacheKind::kFillLfu:
      return std::make_unique<FillLfuCache>(config);
    case CacheKind::kBelady:
      return std::make_unique<BeladyCache>(config);
  }
  VCDN_CHECK_MSG(false, "unknown CacheKind");
  return nullptr;
}

}  // namespace vcdn::core
