// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ReferenceXlruCache: the test oracle for XlruCache (src/core/xlru_cache.h).
//
// Fig. 1 of the paper written literally on the node-based LruMap oracle: a
// video popularity tracker (video -> last access time) and an LRU disk
// (chunk -> last access time), each probed by key. The tracker forgets
// videos older than the horizon XlruCache uses, cache age / min(1, alpha)
// x 1.25, after every update. Resize and DropContents evict in LRU order.
//
// XlruCache must match it decision for decision:
// tests/container_flat_differential_test.cc replays both at three disk
// sizes. Nothing outside tests/ links it.

#ifndef VCDN_TESTS_ORACLES_REFERENCE_XLRU_CACHE_H_
#define VCDN_TESTS_ORACLES_REFERENCE_XLRU_CACHE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/chunk.h"
#include "tests/oracles/lru_map.h"

namespace vcdn::core {

class ReferenceXlruCache : public CacheAlgorithm {
 public:
  explicit ReferenceXlruCache(const CacheConfig& config) : CacheAlgorithm(config) {}

  std::string_view name() const override { return "xLRU"; }
  uint64_t used_chunks() const override { return disk_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return disk_.Contains(chunk); }

  // As XlruCache::CacheAge.
  double CacheAge(double now) const;

  size_t tracked_videos() const { return tracker_.size(); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;

 private:
  container::LruMap<VideoId, double> tracker_;
  container::LruMap<ChunkId, double, ChunkIdHash> disk_;
  std::vector<ChunkId> missing_scratch_;
};

}  // namespace vcdn::core

#endif  // VCDN_TESTS_ORACLES_REFERENCE_XLRU_CACHE_H_
