// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// xLRU Cache (Sec. 5, Fig. 1): an LRU chunk disk cache guarded by a
// video-level popularity tracker.
//
//   HandleRequest(R):
//     t = VideoPopularityTracker.LastAccessTime(R.v)
//     VideoPopularityTracker.Update(R.v, t_now)
//     if t == NULL or (t_now - t) * alpha_F2R > DiskCache.CacheAge():
//       return REDIRECT                                    // Eq. (5)
//     S = DiskCache.MissingChunks([R.c0, R.c1])
//     DiskCache.EvictOldest(S.size()); DiskCache.Fill(S)
//     return SERVE
//
// The popularity test models a video's popularity as the inter-arrival time
// (t_now - t) of its requests and admits it only if it is alpha_F2R times as
// popular as the least popular chunk on disk (whose IAT is estimated by the
// cache age). The warm-up case (disk not yet full) is not shown in the
// paper's pseudocode; here, while the disk has free space the age test is
// skipped (any previously seen video is admitted) but the
// never-seen-before -> redirect rule still applies, which is what makes the
// tracker meaningful from the first byte.
//
// Both the tracker and the disk are FlatLruMaps (src/container/flat_lru_map.h),
// the paper's "linked list ... and a hash map" as one slab with index links.

#ifndef VCDN_SRC_CORE_XLRU_CACHE_H_
#define VCDN_SRC_CORE_XLRU_CACHE_H_

#include <string_view>
#include <vector>

#include "src/container/flat_lru_map.h"
#include "src/core/cache_algorithm.h"

namespace vcdn::core {

class XlruCache : public CacheAlgorithm {
 public:
  explicit XlruCache(const CacheConfig& config);

  std::string_view name() const override { return "xLRU"; }
  uint64_t used_chunks() const override { return disk_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return disk_.Contains(chunk); }

  // Age of the least recently used chunk on disk relative to `now`; 0 when
  // empty. Exposed for tests.
  double CacheAge(double now) const;

  // Number of videos currently tracked by the popularity tracker.
  size_t tracked_videos() const { return tracker_.size(); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;  // LRU order
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  // Drops tracker entries too old to ever pass the admission test again.
  void CleanupTracker(double now);

  // video -> last access time, in recency order for O(1) cleanup.
  container::FlatLruMap<VideoId, double> tracker_;
  // {video, chunk} -> last access time, in recency order (LRU replacement).
  container::FlatLruMap<ChunkId, double, ChunkIdHash> disk_;
  double last_request_time_ = 0.0;
  // Reused across requests so the serve loop does not allocate in steady
  // state.
  std::vector<uint32_t> missing_scratch_;

  // Observability (no-ops until AttachMetrics): why requests were redirected,
  // and the popularity-tracker queue occupancy.
  obs::Counter redirect_unseen_total_;
  obs::Counter redirect_age_total_;
  obs::Counter redirect_too_wide_total_;
  obs::Gauge tracker_videos_gauge_;
  obs::Gauge cache_age_gauge_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_XLRU_CACHE_H_
