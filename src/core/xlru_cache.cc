// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/xlru_cache.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace vcdn::core {

namespace {
// Tracker entries older than cache_age / min(1, alpha) can never pass Eq. (5)
// again; a small safety factor avoids dropping entries right at the border
// while the cache age is still growing.
constexpr double kTrackerRetentionSlack = 1.25;
}  // namespace

XlruCache::XlruCache(const CacheConfig& config) : CacheAlgorithm(config) {
  disk_.Reserve(static_cast<size_t>(config.disk_capacity_chunks));
  // The cleanup horizon bounds the tracker to roughly the videos that could
  // still pass admission; disk capacity is a generous upper estimate.
  tracker_.Reserve(static_cast<size_t>(config.disk_capacity_chunks));
}

double XlruCache::CacheAge(double now) const {
  if (disk_.empty()) {
    return 0.0;
  }
  return now - disk_.Oldest().value;
}

void XlruCache::CleanupTracker(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age / std::min(1.0, config_.alpha_f2r) * kTrackerRetentionSlack;
  while (!tracker_.empty() && now - tracker_.Oldest().value > horizon) {
    tracker_.PopOldest();
  }
}

uint64_t XlruCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (disk_.size() > max_chunks) {
    disk_.PopOldest();
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
  tracker_videos_gauge_.Set(static_cast<double>(tracker_.size()));
  cache_age_gauge_.Set(CacheAge(last_request_time_));
}

RequestOutcome XlruCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  last_request_time_ = now;
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);

  // Popularity test (Fig. 1 lines 1-4): read the previous access time, then
  // record this access.
  const std::optional<double> last = tracker_.Exchange(request.video, now);
  const bool seen_before = last.has_value();
  const double last_time = seen_before ? *last : 0.0;
  CleanupTracker(now);

  bool disk_full = disk_.size() >= config_.disk_capacity_chunks;
  if (!seen_before) {
    redirect_unseen_total_.Increment();
    outcome.decision = Decision::kRedirect;
    return outcome;
  }
  // Eq. (5): redirect if the video's inter-arrival time, scaled by the
  // fill-to-redirect preference, exceeds the cache age. Only enforced once
  // the disk is full (warm-up admits all previously seen videos).
  if (disk_full && (now - last_time) * config_.alpha_f2r > CacheAge(now)) {
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

  // Serve: touch hits, fill misses (evicting the LRU chunks as needed).
  std::vector<uint32_t>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    ChunkId chunk{request.video, c};
    if (double* at = disk_.GetAndTouch(chunk)) {
      *at = now;
      ++outcome.hit_chunks;
    } else {
      missing.push_back(c);
    }
  }
  uint64_t needed = disk_.size() + missing.size();
  uint64_t to_evict = needed > config_.disk_capacity_chunks
                          ? needed - config_.disk_capacity_chunks
                          : 0;
  for (uint64_t i = 0; i < to_evict; ++i) {
    disk_.PopOldest();
    ++outcome.evicted_chunks;
  }
  for (uint32_t c : missing) {
    disk_.InsertOrTouch(ChunkId{request.video, c}, now);
    ++outcome.filled_chunks;
  }

  outcome.decision = Decision::kServe;
  return outcome;
}

}  // namespace vcdn::core
