// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/oracles/reference_xlru_cache.h"

#include <algorithm>

namespace vcdn::core {

double ReferenceXlruCache::CacheAge(double now) const {
  if (disk_.empty()) {
    return 0.0;
  }
  return now - disk_.Oldest().value;
}

uint64_t ReferenceXlruCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (disk_.size() > max_chunks) {
    disk_.PopOldest();
    ++evicted;
  }
  return evicted;
}

RequestOutcome ReferenceXlruCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  RequestOutcome outcome = MakeOutcome(request);
  const ChunkRange range = ToChunkRange(request, config_.chunk_bytes);

  // t = VideoPopularityTracker.LastAccessTime(R.v)
  const double* last = tracker_.Peek(request.video);
  const bool seen = last != nullptr;
  const double t = seen ? *last : 0.0;
  // VideoPopularityTracker.Update(R.v, t_now), then forget the videos that
  // can no longer pass Eq. (5).
  tracker_.InsertOrTouch(request.video, now);
  const double age = CacheAge(now);
  if (age > 0.0) {
    const double horizon = age / std::min(1.0, config_.alpha_f2r) * 1.25;
    while (now - tracker_.Oldest().value > horizon) {
      tracker_.PopOldest();
    }
  }

  // if t == NULL or (t_now - t) * alpha_F2R > DiskCache.CacheAge(): REDIRECT.
  // The age test applies once the disk is full.
  const bool disk_full = disk_.size() >= config_.disk_capacity_chunks;
  if (!seen || (disk_full && (now - t) * config_.alpha_f2r > CacheAge(now)) ||
      range.count() > config_.disk_capacity_chunks) {
    outcome.decision = Decision::kRedirect;
    return outcome;
  }

  // S = DiskCache.MissingChunks([R.c0, R.c1]); the chunks on disk are
  // served, which makes them the most recent.
  std::vector<ChunkId>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    const ChunkId chunk{request.video, c};
    if (double* at = disk_.GetAndTouch(chunk)) {
      *at = now;
      ++outcome.hit_chunks;
    } else {
      missing.push_back(chunk);
    }
  }
  // DiskCache.EvictOldest(...): as many as the fill would overflow the disk.
  while (disk_.size() + missing.size() > config_.disk_capacity_chunks) {
    disk_.PopOldest();
    ++outcome.evicted_chunks;
  }
  // DiskCache.Fill(S)
  for (const ChunkId& chunk : missing) {
    disk_.InsertOrTouch(chunk, now);
    ++outcome.filled_chunks;
  }
  outcome.decision = Decision::kServe;
  return outcome;
}

}  // namespace vcdn::core
