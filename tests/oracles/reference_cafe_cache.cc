// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/oracles/reference_cafe_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vcdn::core {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kMinIat = 1e-6;
}  // namespace

ReferenceCafeCache::ReferenceCafeCache(const CacheConfig& config, const CafeOptions& options)
    : CacheAlgorithm(config), options_(options) {
  VCDN_CHECK(options_.gamma > 0.0 && options_.gamma <= 1.0);
  VCDN_CHECK(options_.history_retention_factor > 0.0);
}

double ReferenceCafeCache::IatOf(const ChunkStat& stat, double now) const {
  return options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
}

double ReferenceCafeCache::VirtualKey(const ChunkStat& stat) const {
  return options_.gamma * stat.t_last - (1.0 - options_.gamma) * stat.dt;
}

void ReferenceCafeCache::UpdateStat(ChunkStat& stat, double now) const {
  stat.dt = options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
  stat.t_last = now;
}

double ReferenceCafeCache::CacheAge(double now) const {
  if (cached_.empty()) {
    return 0.0;
  }
  const ChunkStat* stat = cached_stats_.Peek(cached_.Top().second);
  VCDN_DCHECK(stat != nullptr);
  return std::max(0.0, IatOf(*stat, now));
}

double ReferenceCafeCache::EstimateIat(const ChunkId& chunk, double now) const {
  if (const ChunkStat* cached_stat = cached_stats_.Peek(chunk)) {
    return std::max(kMinIat, IatOf(*cached_stat, now));
  }
  if (const ChunkStat* stat = history_.Peek(chunk)) {
    return std::max(kMinIat, IatOf(*stat, now));
  }
  return EstimateIatFromVideo(chunk.video, now);
}

double ReferenceCafeCache::EstimateIatFromVideo(VideoId video, double now) const {
  if (!options_.estimate_unseen_from_video) {
    return kInfinity;
  }
  bool any = false;
  double worst = 0.0;
  video_chunks_.ForEach(video, [&](uint32_t index) {
    const ChunkStat* stat = cached_stats_.Peek(ChunkId{video, index});
    VCDN_DCHECK(stat != nullptr);
    any = true;
    worst = std::max(worst, IatOf(*stat, now));
  });
  return any ? std::max(kMinIat, worst) : kInfinity;
}

void ReferenceCafeCache::CleanupHistory(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age * options_.history_retention_factor / std::min(1.0, config_.alpha_f2r);
  while (!history_.empty() && now - history_.Oldest().value.t_last > horizon) {
    if (options_.proactive) {
      history_by_key_.Erase(history_.Oldest().key);
    }
    history_.PopOldest();
  }
  while (!video_seen_.empty() && now - video_seen_.Oldest().value > horizon) {
    video_seen_.PopOldest();
  }
}

void ReferenceCafeCache::HistoryPut(const ChunkId& chunk, const ChunkStat& stat) {
  history_.InsertOrTouch(chunk, stat);
  if (options_.proactive) {
    history_by_key_.InsertOrUpdate(chunk, VirtualKey(stat));
  }
}

void ReferenceCafeCache::HistoryErase(const ChunkId& chunk) {
  history_.Erase(chunk);
  if (options_.proactive) {
    history_by_key_.Erase(chunk);
  }
}

void ReferenceCafeCache::CacheInsert(const ChunkId& chunk, const ChunkStat& stat) {
  cached_stats_.InsertOrTouch(chunk, stat);
  cached_.InsertOrUpdate(chunk, VirtualKey(stat));
  video_chunks_.Insert(chunk.video, chunk.index);
}

void ReferenceCafeCache::CacheEvict(const ChunkId& chunk) {
  const ChunkStat* stat = cached_stats_.Peek(chunk);
  VCDN_DCHECK(stat != nullptr);
  HistoryPut(chunk, *stat);
  cached_stats_.Erase(chunk);
  cached_.Erase(chunk);
  video_chunks_.Erase(chunk.video, chunk.index);
}

uint64_t ReferenceCafeCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    ChunkId victim = cached_.Top().second;  // copy: eviction invalidates refs
    CacheEvict(victim);
    ++evicted;
  }
  return evicted;
}

uint32_t ReferenceCafeCache::ProactiveFill(double now) {
  if (rate_estimate_ <= 0.0 || peak_rate_ <= 0.0 ||
      rate_estimate_ > options_.proactive_rate_threshold * peak_rate_) {
    return 0;
  }
  const double window = CacheAge(now);
  const double min_cost = cost_.min_cost();
  uint32_t filled = 0;
  while (filled < options_.proactive_fills_per_request && !history_by_key_.empty()) {
    auto [key, chunk] = history_by_key_.Top();
    const ChunkStat* stat = history_.Peek(chunk);
    VCDN_DCHECK(stat != nullptr);
    double gain = window / std::max(kMinIat, IatOf(*stat, now)) * min_cost;
    bool disk_full = cached_.size() >= config_.disk_capacity_chunks;
    if (disk_full) {
      if (cached_.empty() || key <= cached_.Top().first) {
        break;
      }
      const ChunkStat* victim_stat = cached_stats_.Peek(cached_.Top().second);
      VCDN_DCHECK(victim_stat != nullptr);
      gain -= window / std::max(kMinIat, IatOf(*victim_stat, now)) * min_cost;
    }
    if (gain <= cost_.fill_cost() * options_.proactive_cost_discount) {
      break;
    }
    ChunkStat moved = *stat;
    HistoryErase(chunk);
    if (disk_full) {
      ChunkId victim = cached_.Top().second;
      CacheEvict(victim);
    }
    CacheInsert(chunk, moved);
    ++filled;
  }
  return filled;
}

RequestOutcome ReferenceCafeCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  if (first_request_time_ < 0.0) {
    first_request_time_ = now;
  }
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  const size_t chunk_count = range.count();

  // S' = the requested chunks not on disk.
  std::vector<ChunkId>& missing = missing_scratch_;
  missing.clear();
  for (uint32_t c = range.first; c <= range.last; ++c) {
    if (!cached_.Contains(ChunkId{request.video, c})) {
      missing.push_back(ChunkId{request.video, c});
    }
  }
  outcome.hit_chunks = static_cast<uint32_t>(chunk_count - missing.size());

  const bool video_seen = video_seen_.Contains(request.video);
  video_seen_.InsertOrTouch(request.video, now);

  bool admit = false;
  std::vector<std::pair<ChunkId, double>>& victims = victims_scratch_;  // (chunk, IAT at now)
  victims.clear();
  if (video_seen && chunk_count <= config_.disk_capacity_chunks) {
    // S'': the least popular cached chunks not requested, as many as the
    // fill would overflow the disk.
    uint64_t needed = cached_.size() + missing.size();
    uint64_t evictions = needed > config_.disk_capacity_chunks
                             ? needed - config_.disk_capacity_chunks
                             : 0;
    if (evictions > 0) {
      cached_.ScanInOrder([&](const auto& item) {
        const ChunkId& chunk = item.second;
        if (victims.size() >= evictions) {
          return false;
        }
        if (chunk.video == request.video && chunk.index >= range.first &&
            chunk.index <= range.last) {
          return true;
        }
        const ChunkStat* stat = cached_stats_.Peek(chunk);
        VCDN_DCHECK(stat != nullptr);
        victims.emplace_back(chunk, std::max(kMinIat, IatOf(*stat, now)));
        return victims.size() < evictions;
      });
      VCDN_CHECK(victims.size() == evictions);
    }

    double window = CacheAge(now);
    if (cached_.size() < config_.disk_capacity_chunks) {
      window = std::max(window, now - first_request_time_);
    }

    // Eqs. (6) and (7).
    double min_cost = cost_.min_cost();
    double cost_serve = static_cast<double>(missing.size()) * cost_.fill_cost();
    for (const auto& [chunk, iat] : victims) {
      cost_serve += window / iat * min_cost;
    }
    double cost_redirect = static_cast<double>(chunk_count) * cost_.redirect_cost();
    for (const ChunkId& chunk : missing) {
      double iat = EstimateIat(chunk, now);
      if (std::isfinite(iat)) {
        cost_redirect += window / iat * min_cost;
      }
    }
    admit = cost_serve <= cost_redirect;
  }

  if (admit) {
    for (const auto& [chunk, iat] : victims) {
      (void)iat;
      CacheEvict(chunk);
      ++outcome.evicted_chunks;
    }
    for (uint32_t c = range.first; c <= range.last; ++c) {
      const ChunkId chunk{request.video, c};
      if (ChunkStat* stat = cached_stats_.PeekMut(chunk)) {
        UpdateStat(*stat, now);
        cached_.InsertOrUpdate(chunk, VirtualKey(*stat));
        continue;
      }
      ChunkStat stat;
      if (const ChunkStat* h = history_.Peek(chunk)) {
        stat = *h;
        HistoryErase(chunk);
        UpdateStat(stat, now);
      } else {
        double estimate = EstimateIatFromVideo(request.video, now);
        stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
        stat.t_last = now;
      }
      CacheInsert(chunk, stat);
      ++outcome.filled_chunks;
    }
    outcome.decision = Decision::kServe;
  } else {
    // Redirect; the request still updates every requested chunk's stat.
    for (uint32_t c = range.first; c <= range.last; ++c) {
      const ChunkId chunk{request.video, c};
      if (ChunkStat* cached_stat = cached_stats_.PeekMut(chunk)) {
        UpdateStat(*cached_stat, now);
        cached_.InsertOrUpdate(chunk, VirtualKey(*cached_stat));
        continue;
      }
      ChunkStat stat;
      if (const ChunkStat* h = history_.Peek(chunk)) {
        stat = *h;
        UpdateStat(stat, now);
      } else {
        double estimate = EstimateIatFromVideo(request.video, now);
        stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
        stat.t_last = now;
      }
      HistoryPut(chunk, stat);
    }
    outcome.decision = Decision::kRedirect;
  }

  if (last_arrival_ >= 0.0 && now > last_arrival_) {
    double instantaneous = 1.0 / (now - last_arrival_);
    const double smoothing = kProactiveRateSmoothing;
    rate_estimate_ = rate_estimate_ <= 0.0
                         ? instantaneous
                         : smoothing * instantaneous + (1.0 - smoothing) * rate_estimate_;
    peak_rate_ = std::max(peak_rate_ * (1.0 - smoothing * 0.01), rate_estimate_);
  }
  last_arrival_ = now;
  if (options_.proactive) {
    outcome.proactive_filled_chunks = ProactiveFill(now);
  }

  CleanupHistory(now);
  return outcome;
}

}  // namespace vcdn::core
