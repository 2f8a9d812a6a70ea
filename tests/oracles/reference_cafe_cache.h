// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ReferenceCafeCache: the test oracle for CafeCache (src/core/cafe_cache.h).
//
// The same Sec. 6 algorithm, written the way the seed wrote it: cached
// chunks ordered by virtual timestamp in a RefScoreHeap, their stats and the
// uncached history in node-based LruMaps, the proactive candidates in a
// second RefScoreHeap, and each video's cached chunk indices in a
// ReferenceChunkSetMap. Every request probes those containers separately and
// scans the full victim set before costing it; nothing is batched or
// prefetched.
//
// CafeCache must match it decision for decision:
// tests/container_flat_differential_test.cc replays both under the default,
// proactive and no-unseen-estimate options. Nothing outside tests/ links it.

#ifndef VCDN_TESTS_ORACLES_REFERENCE_CAFE_CACHE_H_
#define VCDN_TESTS_ORACLES_REFERENCE_CAFE_CACHE_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/container/fast_hash.h"
#include "src/core/cafe_cache.h"
#include "src/util/check.h"
#include "tests/oracles/lru_map.h"
#include "tests/oracles/ref_score_heap.h"

namespace vcdn::core {

// Video id -> the indices of its cached chunks: the seed's node-based shape
// (unordered_map of unordered_sets) behind the unseen-chunk estimate, where
// CafeCache walks a chain of slot handles headed in the video's record.
// Iteration order within a video is unspecified; the estimate only folds a
// max() over the chunks' IATs.
class ReferenceChunkSetMap {
 public:
  void Insert(uint64_t video, uint32_t chunk) { map_[video].insert(chunk); }

  void Erase(uint64_t video, uint32_t chunk) {
    auto it = map_.find(video);
    VCDN_DCHECK(it != map_.end());
    it->second.erase(chunk);
    if (it->second.empty()) {
      map_.erase(it);
    }
  }

  template <typename Fn>
  void ForEach(uint64_t video, Fn&& fn) const {
    auto it = map_.find(video);
    if (it == map_.end()) {
      return;
    }
    for (uint32_t chunk : it->second) {
      fn(chunk);
    }
  }

 private:
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>, container::U64Hash> map_;
};

class ReferenceCafeCache : public CacheAlgorithm {
 public:
  explicit ReferenceCafeCache(const CacheConfig& config, const CafeOptions& options = {});

  std::string_view name() const override { return "Cafe"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return cached_.Contains(chunk); }

  // As CafeCache::CacheAge.
  double CacheAge(double now) const;

  size_t tracked_history_chunks() const { return history_.size(); }
  // As CafeCache's: the seen videos, and the seen videos plus those that
  // still track a chunk (cached or in the history).
  size_t tracked_videos() const { return video_seen_.size(); }
  size_t video_records() const;

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;

 private:
  struct ChunkStat {
    double dt = 0.0;      // EWMA-smoothed inter-arrival time
    double t_last = 0.0;  // last access time
  };

  double IatOf(const ChunkStat& stat, double now) const;
  double VirtualKey(const ChunkStat& stat) const;
  void UpdateStat(ChunkStat& stat, double now) const;
  double EstimateIat(const ChunkId& chunk, double now) const;
  double EstimateIatFromVideo(VideoId video, double now) const;
  void CleanupHistory(double now);
  void HistoryPut(const ChunkId& chunk, const ChunkStat& stat);
  void HistoryErase(const ChunkId& chunk);
  void CacheInsert(const ChunkId& chunk, const ChunkStat& stat);
  void CacheEvict(const ChunkId& chunk);
  uint32_t ProactiveFill(double now);

  CafeOptions options_;

  container::RefScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/false> cached_;
  container::LruMap<ChunkId, ChunkStat, ChunkIdHash> cached_stats_;
  ReferenceChunkSetMap video_chunks_;
  container::LruMap<ChunkId, ChunkStat, ChunkIdHash> history_;
  // Maintained only when options_.proactive is set.
  container::RefScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/true> history_by_key_;
  container::LruMap<VideoId, double> video_seen_;
  double first_request_time_ = -1.0;

  double last_arrival_ = -1.0;
  double rate_estimate_ = 0.0;
  double peak_rate_ = 0.0;

  std::vector<ChunkId> missing_scratch_;
  std::vector<std::pair<ChunkId, double>> victims_scratch_;
};

}  // namespace vcdn::core

#endif  // VCDN_TESTS_ORACLES_REFERENCE_CAFE_CACHE_H_
