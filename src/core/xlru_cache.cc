// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/xlru_cache.h"

#include <algorithm>

namespace vcdn::core {

namespace {
// Tracker entries older than cache_age / min(1, alpha) can never pass Eq. (5)
// again; a small safety factor avoids dropping entries right at the border
// while the cache age is still growing.
constexpr double kTrackerRetentionSlack = 1.25;
}  // namespace

XlruCache::XlruCache(const CacheConfig& config) : CacheAlgorithm(config) {
  const auto capacity = static_cast<size_t>(config.disk_capacity_chunks);
  disk_.reserve(capacity);
  // The cleanup horizon bounds the tracker to roughly the videos that could
  // still pass admission; disk capacity is a generous upper estimate. Only
  // videos with chunks on disk have rows, whose entries cover every chunk
  // on disk; twice the disk leaves room for their power-of-two slack.
  videos_.Reserve(capacity, 2 * capacity);
}

bool XlruCache::ContainsChunk(const ChunkId& chunk) const {
  const uint32_t r = videos_.Find(chunk.video);
  return r != kNil && videos_.Get(r, chunk.index) != kNil;
}

double XlruCache::CacheAge(double now) const {
  if (lru_.empty()) {
    return 0.0;
  }
  return now - disk_[lru_.tail()].last;
}

void XlruCache::CleanupTracker(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age / std::min(1.0, config_.alpha_f2r) * kTrackerRetentionSlack;
  for (uint32_t r = videos_.oldest(); r != kNil && now - videos_.last(r) > horizon;
       r = videos_.oldest()) {
    // Older than the disk's oldest chunk, so none of its chunks is on disk.
    VCDN_DCHECK(videos_.row_size(r) == 0);
    videos_.PopOldest();
  }
}

void XlruCache::EvictOldest() {
  const uint32_t h = lru_.tail();
  lru_.Remove(disk_.data(), h);
  videos_.Erase(disk_[h].record, disk_[h].chunk);
  disk_[h].next = free_;
  free_ = h;
}

uint64_t XlruCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (lru_.size() > max_chunks) {
    EvictOldest();
    ++evicted;
  }
  return evicted;
}

void XlruCache::OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
  redirect_unseen_total_ = registry.GetCounter(prefix + "redirect_unseen_total");
  redirect_age_total_ = registry.GetCounter(prefix + "redirect_age_total");
  redirect_too_wide_total_ = registry.GetCounter(prefix + "redirect_too_wide_total");
  tracker_videos_gauge_ = registry.GetGauge(prefix + "tracker_videos");
  cache_age_gauge_ = registry.GetGauge(prefix + "cache_age_seconds");
}

void XlruCache::OnOutcomeRecorded() {
  tracker_videos_gauge_.Set(static_cast<double>(videos_.listed()));
  cache_age_gauge_.Set(CacheAge(last_request_time_));
}

RequestOutcome XlruCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  last_request_time_ = now;
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);

  // Popularity test (Fig. 1 lines 1-4): read the previous access time, then
  // record this access. The request's one probe.
  const container::VideoTable::Touched touched = videos_.Touch(request.video, now);
  CleanupTracker(now);

  bool disk_full = lru_.size() >= config_.disk_capacity_chunks;
  if (!touched.listed) {
    redirect_unseen_total_.Increment();
    outcome.decision = Decision::kRedirect;
    return outcome;
  }
  // Eq. (5): redirect if the video's inter-arrival time, scaled by the
  // fill-to-redirect preference, exceeds the cache age. Only enforced once
  // the disk is full (warm-up admits all previously seen videos).
  if (disk_full && (now - touched.previous) * config_.alpha_f2r > CacheAge(now)) {
    redirect_age_total_.Increment();
    outcome.decision = Decision::kRedirect;
    return outcome;
  }
  // A range wider than the whole disk cannot be held.
  if (range.count() > config_.disk_capacity_chunks) {
    redirect_too_wide_total_.Increment();
    outcome.decision = Decision::kRedirect;
    return outcome;
  }

  // Serve: touch hits, then evict the LRU chunks the fill needs room for,
  // then fill the misses. The touched hits are the newest and the range
  // fits the disk, so no eviction reaches a chunk of this range.
  const uint32_t r = touched.record;
  uint32_t missing = 0;
  for (uint32_t c = range.first; c <= range.last; ++c) {
    const uint32_t h = videos_.Get(r, c);
    if (h != kNil) {
      disk_[h].last = now;
      lru_.MoveToFront(disk_.data(), h);
      ++outcome.hit_chunks;
    } else {
      ++missing;
    }
  }
  uint64_t needed = lru_.size() + missing;
  uint64_t to_evict = needed > config_.disk_capacity_chunks
                          ? needed - config_.disk_capacity_chunks
                          : 0;
  for (uint64_t i = 0; i < to_evict; ++i) {
    EvictOldest();
    ++outcome.evicted_chunks;
  }
  for (uint32_t c = range.first; c <= range.last; ++c) {
    if (videos_.Get(r, c) != kNil) {
      continue;
    }
    uint32_t h = free_;
    if (h != kNil) {
      free_ = disk_[h].next;
    } else {
      h = static_cast<uint32_t>(disk_.size());
      disk_.emplace_back();
    }
    disk_[h].last = now;
    disk_[h].record = r;
    disk_[h].chunk = c;
    lru_.PushFront(disk_.data(), h);
    videos_.Set(r, c, h);
    ++outcome.filled_chunks;
  }

  outcome.decision = Decision::kServe;
  return outcome;
}

}  // namespace vcdn::core
