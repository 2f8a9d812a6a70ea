// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/cafe_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vcdn::core {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
// Floor on IAT values when dividing (an IAT of 0 would make a chunk
// infinitely valuable; in practice it means "requested within this tick").
constexpr double kMinIat = 1e-6;
}  // namespace

CafeCache::CafeCache(const CacheConfig& config, const CafeOptions& options)
    : CacheAlgorithm(config), options_(options) {
  VCDN_CHECK(options_.gamma > 0.0 && options_.gamma <= 1.0);
  VCDN_CHECK(options_.history_retention_factor > 0.0);
  const auto capacity = static_cast<size_t>(config.disk_capacity_chunks);
  // The table holds the cached chunks plus the history. The history's
  // cleanup horizon scales with cache age, so it tracks several times as
  // many uncached chunks as the disk caches (4-16x at 1 paper-TB by the end
  // of the month); the slab and the video table grow past this reservation
  // during warm-up, and allocate nothing after that.
  slots_.reserve(2 * capacity);
  videos_.Reserve(capacity, 2 * capacity);
  cached_.Reserve(capacity);
  if (options_.proactive) {
    // The candidate heap is only maintained when proactive filling can read
    // it; otherwise it stays empty and unreserved.
    candidates_.Reserve(capacity);
  }
}

double CafeCache::IatOf(const ChunkStat& stat, double now) const {
  // Eq. (8).
  return options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
}

void CafeCache::UpdateStat(ChunkStat& stat, double now) const {
  stat.dt = options_.gamma * (now - stat.t_last) + (1.0 - options_.gamma) * stat.dt;
  stat.t_last = now;
}

bool CafeCache::ContainsChunk(const ChunkId& chunk) const {
  const uint32_t r = videos_.Find(chunk.video);
  if (r == kNil) {
    return false;
  }
  const uint32_t h = videos_.Get(r, chunk.index);
  return h != kNil && IsCached(h);
}

double CafeCache::CacheAge(double now) const {
  if (cached_.empty()) {
    return 0.0;
  }
  return std::max(0.0, IatOf(slots_[cached_.top()].stat, now));
}

double CafeCache::EstimateIat(const ChunkId& chunk, double now) const {
  const uint32_t r = videos_.Find(chunk.video);
  const uint32_t h = r == kNil ? kNil : videos_.Get(r, chunk.index);
  if (h != kNil) {
    return std::max(kMinIat, IatOf(slots_[h].stat, now));
  }
  return EstimateIatFromVideo(r, now);
}

double CafeCache::EstimateIatFromVideo(uint32_t r, double now) const {
  if (!options_.estimate_unseen_from_video || r == kNil || videos_.chain(r) == kNil) {
    return kInfinity;
  }
  // Sec. 6 optimization: a never-seen chunk of a partially cached video
  // inherits the largest recorded IAT among the video's cached chunks.
  // max() is order-independent, so the chain's order is immaterial.
  double worst = 0.0;
  for (uint32_t h = videos_.chain(r); h != kNil; h = slots_[h].sibling) {
    VCDN_DCHECK(IsCached(h));
    worst = std::max(worst, IatOf(slots_[h].stat, now));
  }
  return std::max(kMinIat, worst);
}

CafeCache::ChunkStat CafeCache::FreshStat(uint32_t r, double now) const {
  ChunkStat stat;
  double estimate = EstimateIatFromVideo(r, now);
  stat.dt = std::isfinite(estimate) ? estimate : std::max(CacheAge(now), kMinIat);
  stat.t_last = now;
  return stat;
}

uint32_t CafeCache::NewSlot(uint32_t r, uint32_t chunk, const ChunkStat& stat) {
  uint32_t h = free_;
  if (h != kNil) {
    free_ = slots_[h].next;
  } else {
    VCDN_CHECK_MSG(slots_.size() < kCachedMark, "Cafe chunk table slot limit exceeded");
    h = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[h];
  slot.record = r;
  slot.sibling = kNil;
  slot.index = chunk;
  slot.stat = stat;
  slot.prev = kNil;
  slot.next = kNil;
  videos_.Set(r, chunk, h);
  return h;
}

void CafeCache::FreeSlot(uint32_t h) {
  videos_.Erase(slots_[h].record, slots_[h].index);
  slots_[h].next = free_;
  free_ = h;
}

void CafeCache::CacheSlot(uint32_t h) {
  Slot& slot = slots_[h];
  slot.prev = kCachedMark;
  uint32_t& chain = videos_.chain(slot.record);
  slot.sibling = chain;
  chain = h;
  cached_.Push(h, CachedOps());
}

void CafeCache::EvictSlot(uint32_t h) {
  VCDN_DCHECK(IsCached(h));
  // Leave the cached heap first: history reuses heap_pos for candidates_.
  cached_.Remove(slots_[h].heap_pos, CachedOps());
  uint32_t* link = &videos_.chain(slots_[h].record);
  while (*link != h) {
    VCDN_DCHECK(*link != kNil);
    link = &slots_[*link].sibling;
  }
  *link = slots_[h].sibling;
  HistoryPush(h);
}

void CafeCache::HistoryPush(uint32_t h) {
  history_.PushFront(slots_.data(), h);
  if (options_.proactive) {
    candidates_.Push(h, CandidateOps());
  }
}

void CafeCache::HistoryRemove(uint32_t h) {
  VCDN_DCHECK(!IsCached(h));
  history_.Remove(slots_.data(), h);
  if (options_.proactive) {
    candidates_.Remove(slots_[h].heap_pos, CandidateOps());
  }
}

void CafeCache::HistoryTouch(uint32_t h) {
  VCDN_DCHECK(!IsCached(h));
  history_.MoveToFront(slots_.data(), h);
  if (options_.proactive) {
    candidates_.Fix(slots_[h].heap_pos, CandidateOps());
  }
}

void CafeCache::CleanupHistory(double now) {
  double age = CacheAge(now);
  if (age <= 0.0) {
    return;
  }
  double horizon = age * options_.history_retention_factor / std::min(1.0, config_.alpha_f2r);
  // Each trim clears one row entry; a video's record goes with the last of
  // its chunks once it is off the seen list.
  while (!history_.empty() && now - slots_[history_.tail()].stat.t_last > horizon) {
    const uint32_t h = history_.tail();
    HistoryRemove(h);
    FreeSlot(h);
  }
  while (videos_.oldest() != kNil && now - videos_.last(videos_.oldest()) > horizon) {
    videos_.PopOldest();
  }
}

uint64_t CafeCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    EvictSlot(cached_.top());
    ++evicted;
  }
  return evicted;
}

uint32_t CafeCache::ProactiveFill(double now) {
  // Off-peak only: the smoothed request rate must sit well below the peak.
  if (rate_estimate_ <= 0.0 || peak_rate_ <= 0.0 ||
      rate_estimate_ > options_.proactive_rate_threshold * peak_rate_) {
    return 0;
  }
  const double window = CacheAge(now);
  const double min_cost = cost_.min_cost();
  uint32_t filled = 0;
  while (filled < options_.proactive_fills_per_request && !candidates_.empty()) {
    const uint32_t h = candidates_.top();  // most popular uncached chunk

    // Prefetch only when it pays under Cafe's own cost model (Eqs. 6-7):
    // the expected future redirects/fills avoided must exceed the fill cost
    // plus, if the disk is full, the victim's own expected future value.
    double gain = window / std::max(kMinIat, IatOf(slots_[h].stat, now)) * min_cost;
    const bool disk_full = cached_.size() >= config_.disk_capacity_chunks;
    if (disk_full) {
      // A full disk is non-empty (capacity is always positive).
      const uint32_t victim = cached_.top();
      if (VirtualKeyOf(slots_[h].stat, options_.gamma) <=
          VirtualKeyOf(slots_[victim].stat, options_.gamma)) {
        break;
      }
      gain -= window / std::max(kMinIat, IatOf(slots_[victim].stat, now)) * min_cost;
    }
    if (gain <= cost_.fill_cost() * options_.proactive_cost_discount) {
      // Candidates are popularity-ordered; nothing further down can pay.
      break;
    }

    HistoryRemove(h);
    if (disk_full) {
      EvictSlot(cached_.top());
    }
    CacheSlot(h);
    ++filled;
  }
  return filled;
}

void CafeCache::OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
  admit_serve_total_ = registry.GetCounter(prefix + "admit_serve_total");
  admit_redirect_cost_total_ = registry.GetCounter(prefix + "admit_redirect_cost_total");
  admit_redirect_unseen_total_ = registry.GetCounter(prefix + "admit_redirect_unseen_total");
  admit_redirect_too_wide_total_ = registry.GetCounter(prefix + "admit_redirect_too_wide_total");
  proactive_fill_rounds_total_ = registry.GetCounter(prefix + "proactive_fill_rounds_total");
  history_chunks_gauge_ = registry.GetGauge(prefix + "history_chunks");
  tracked_videos_gauge_ = registry.GetGauge(prefix + "tracked_videos");
  cache_age_gauge_ = registry.GetGauge(prefix + "cache_age_seconds");
  request_rate_gauge_ = registry.GetGauge(prefix + "request_rate_per_sec");
}

void CafeCache::OnOutcomeRecorded() {
  history_chunks_gauge_.Set(static_cast<double>(history_.size()));
  tracked_videos_gauge_.Set(static_cast<double>(videos_.listed()));
  cache_age_gauge_.Set(CacheAge(last_arrival_));
  request_rate_gauge_.Set(rate_estimate_);
}

RequestOutcome CafeCache::HandleRequestImpl(const trace::Request& request) {
  const double now = request.arrival_time;
  if (first_request_time_ < 0.0) {
    first_request_time_ = now;
  }
  RequestOutcome outcome = MakeOutcome(request);
  const ChunkRange range = ToChunkRange(request, config_.chunk_bytes);
  const size_t chunk_count = range.count();

  // The request's one probe: its video's record, touched on the seen list.
  // First-ever request for this video (or first since the cleanup forgot
  // it): no popularity signal at all; redirect (the same rule as xLRU's
  // "t == NULL" -- Sec. 9.2 confirms Cafe intentionally never admits a
  // never-seen file).
  const container::VideoTable::Touched touched = videos_.Touch(request.video, now);
  const uint32_t r = touched.record;
  const bool video_seen = touched.listed;

  // Classify the requested chunks (S) through the record's row: a chunk's
  // entry is its slot, or kNil if it is untracked; S' is every chunk not
  // cached.
  size_t missing = 0;
  for (uint32_t c = range.first; c <= range.last; ++c) {
    const uint32_t h = videos_.Get(r, c);
    if (h == kNil || !IsCached(h)) {
      ++missing;
    }
  }
  outcome.hit_chunks = static_cast<uint32_t>(chunk_count - missing);

  bool admit = false;
  std::vector<uint32_t>& victims = victims_scratch_;
  victims.clear();
  if (video_seen && chunk_count <= config_.disk_capacity_chunks) {
    // Lookahead window T: the cache age; while the disk is still filling the
    // natural churn horizon is the cache's lifetime so far.
    double window = CacheAge(now);
    if (cached_.size() < config_.disk_capacity_chunks) {
      window = std::max(window, now - first_request_time_);
    }
    const double min_cost = cost_.min_cost();

    // Eq. (7). Nothing changes state while costing, so every untracked chunk
    // gets the same per-video estimate; it is computed once, on first need.
    double cost_redirect = static_cast<double>(chunk_count) * cost_.redirect_cost();
    bool have_unseen_iat = false;
    double unseen_iat = 0.0;
    for (uint32_t c = range.first; c <= range.last; ++c) {
      const uint32_t h = videos_.Get(r, c);
      double iat;
      if (h == kNil) {
        if (!have_unseen_iat) {
          unseen_iat = EstimateIatFromVideo(r, now);
          have_unseen_iat = true;
        }
        iat = unseen_iat;
      } else if (!IsCached(h)) {
        iat = std::max(kMinIat, IatOf(slots_[h].stat, now));
      } else {
        continue;
      }
      if (std::isfinite(iat)) {
        cost_redirect += window / iat * min_cost;
      }
    }

    // Eq. (6), with the eviction victims S'' selected in the same pass: the
    // least popular cached chunks, skipping requested ones, as many as the
    // fill would overflow the disk. The scan stops as soon as serving costs
    // more than redirecting (see the header for why that is exact).
    double cost_serve = static_cast<double>(missing) * cost_.fill_cost();
    bool too_costly = cost_serve > cost_redirect;
    const uint64_t needed = cached_.size() + missing;
    const uint64_t evictions = needed > config_.disk_capacity_chunks
                                   ? needed - config_.disk_capacity_chunks
                                   : 0;
    if (!too_costly && evictions > 0) {
      cached_.ScanInOrder(CachedOps(), [&](uint32_t h) {
        const Slot& slot = slots_[h];
        if (slot.record == r && slot.index >= range.first && slot.index <= range.last) {
          return true;  // never evict a chunk this request needs
        }
        cost_serve += window / std::max(kMinIat, IatOf(slot.stat, now)) * min_cost;
        victims.push_back(h);
        if (cost_serve > cost_redirect) {
          too_costly = true;
          return false;
        }
        return victims.size() < evictions;
      });
      VCDN_CHECK(too_costly || victims.size() == evictions);
    }
    admit = !too_costly;
  }

  if (admit) {
    admit_serve_total_.Increment();
    // Evict S'' (stats move to history), fill S', touch all of S.
    for (uint32_t h : victims) {
      EvictSlot(h);
      ++outcome.evicted_chunks;
    }
    for (uint32_t c = range.first; c <= range.last; ++c) {
      uint32_t h = videos_.Get(r, c);
      if (h != kNil && IsCached(h)) {
        // Hit: EWMA update and re-key.
        UpdateStat(slots_[h].stat, now);
        cached_.Fix(slots_[h].heap_pos, CachedOps());
        continue;
      }
      // Fill: the stat comes from history, or is initialized fresh.
      if (h != kNil) {
        HistoryRemove(h);
        UpdateStat(slots_[h].stat, now);
      } else {
        h = NewSlot(r, c, FreshStat(r, now));
      }
      CacheSlot(h);
      ++outcome.filled_chunks;
    }
    outcome.decision = Decision::kServe;
  } else {
    if (!video_seen) {
      admit_redirect_unseen_total_.Increment();
    } else if (chunk_count > config_.disk_capacity_chunks) {
      admit_redirect_too_wide_total_.Increment();
    } else {
      admit_redirect_cost_total_.Increment();
    }
    // Redirect. The request still signals popularity: update every requested
    // chunk's stat (cached chunks get re-keyed, uncached ones become the
    // newest history).
    for (uint32_t c = range.first; c <= range.last; ++c) {
      const uint32_t h = videos_.Get(r, c);
      if (h == kNil) {
        HistoryPush(NewSlot(r, c, FreshStat(r, now)));
        continue;
      }
      UpdateStat(slots_[h].stat, now);
      if (IsCached(h)) {
        cached_.Fix(slots_[h].heap_pos, CachedOps());
      } else {
        HistoryTouch(h);
      }
    }
    outcome.decision = Decision::kRedirect;
  }

  // Request-rate tracking and, when enabled, off-peak prefetching (Sec. 10).
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
    if (outcome.proactive_filled_chunks > 0) {
      proactive_fill_rounds_total_.Increment();
    }
  }

  CleanupHistory(now);
  return outcome;
}

}  // namespace vcdn::core
