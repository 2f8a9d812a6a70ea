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
// The paper's "linked list ... and a hash map", twice over, as one probe per
// request. The tracker is a container::VideoTable: the videos in recency
// order, each with its chunk row. The disk is a slab of chunk slots (last
// access, the video's record, the chunk number and the LRU links) on a
// RecencyList. A request probes its video's record once; hits, fills and
// evictions go through that record's row by chunk number.
//
// A video leaves the tracker only with an empty row. A chunk's last access
// is never later than its video's, and the tracker's horizon (cache age /
// min(1, alpha) x 1.25) is at least the disk's age, so a video older than
// the horizon has no chunk on disk (CleanupTracker checks it in debug
// builds).

#ifndef VCDN_SRC_CORE_XLRU_CACHE_H_
#define VCDN_SRC_CORE_XLRU_CACHE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/container/recency_list.h"
#include "src/container/video_table.h"
#include "src/core/cache_algorithm.h"

namespace vcdn::core {

class XlruCache : public CacheAlgorithm {
 public:
  explicit XlruCache(const CacheConfig& config);

  std::string_view name() const override { return "xLRU"; }
  uint64_t used_chunks() const override { return lru_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override;

  // Age of the least recently used chunk on disk relative to `now`; 0 when
  // empty. Exposed for tests.
  double CacheAge(double now) const;

  // Number of videos currently tracked by the popularity tracker.
  size_t tracked_videos() const { return videos_.listed(); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;  // LRU order
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One chunk on disk. `next` links the free list while the slot is free.
  struct DiskSlot {
    double last = 0.0;  // last access time
    uint32_t record = 0;
    uint32_t chunk = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // Drops tracker entries too old to ever pass the admission test again.
  void CleanupTracker(double now);
  // Removes the least recently used chunk from the disk.
  void EvictOldest();

  // The tracker: video -> last access time, in recency order for O(1)
  // cleanup, with each video's row of disk slots.
  container::VideoTable videos_;
  // The disk: chunk slots, in recency order (LRU replacement).
  std::vector<DiskSlot> disk_;
  container::RecencyList lru_;
  uint32_t free_ = kNil;
  double last_request_time_ = 0.0;

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
