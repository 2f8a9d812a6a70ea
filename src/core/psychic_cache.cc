// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/psychic_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vcdn::core {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
// Floor on (t - now) when weighting future requests; a same-instant future
// request is "infinitely urgent" only up to this resolution.
constexpr double kMinLookahead = 1e-3;
// EWMA weight of each evicted chunk's residence time in the average that
// sets the window T of Eqs. 13-14 (the cache age).
constexpr double kAgeSmoothing = 0.05;
}  // namespace

PsychicCache::PsychicCache(const CacheConfig& config, const PsychicOptions& options)
    : CacheAlgorithm(config), options_(options) {
  VCDN_CHECK(options_.future_horizon > 0);
  const auto capacity = static_cast<size_t>(config.disk_capacity_chunks);
  cached_.Reserve(capacity);
  fill_time_.Reserve(capacity);
}

void PsychicCache::Prepare(const trace::Trace& trace) {
  futures_.clear();
  futures_.reserve(trace.requests.size());
  for (const trace::Request& r : trace.requests) {
    ChunkRange range = ToChunkRange(r, config_.chunk_bytes);
    for (uint32_t c = range.first; c <= range.last; ++c) {
      futures_[ChunkId{r.video, c}].times.push_back(r.arrival_time);
    }
  }
  prepared_ = true;
}

const PsychicCache::FutureList* PsychicCache::FindFuture(const ChunkId& chunk) const {
  auto it = futures_.find(chunk);
  return it == futures_.end() ? nullptr : &it->second;
}

double PsychicCache::NextRequestTime(const FutureList& future) const {
  if (future.next >= future.times.size()) {
    return kInfinity;
  }
  return future.times[future.next];
}

double PsychicCache::FutureCost(const FutureList& future, double now, double window) const {
  double cost = 0.0;
  size_t limit = std::min(future.times.size(), future.next + options_.future_horizon);
  for (size_t i = future.next; i < limit; ++i) {
    cost += window / std::max(future.times[i] - now, kMinLookahead);
  }
  return cost;
}

double PsychicCache::CacheAge(double now) const {
  if (residence_initialized_) {
    return average_residence_;
  }
  // No eviction yet: the cache is still filling; its churn horizon is its
  // lifetime so far.
  return first_request_time_ < 0.0 ? 0.0 : now - first_request_time_;
}

uint64_t PsychicCache::EvictDownTo(uint64_t max_chunks) {
  uint64_t evicted = 0;
  while (cached_.size() > max_chunks) {
    auto [key, chunk] = cached_.PopTop();  // farthest-future first
    (void)key;
    fill_time_.Erase(chunk);
    ++evicted;
  }
  return evicted;
}

void PsychicCache::OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
  window_gauge_ = registry.GetGauge(prefix + "window_seconds");
  tracked_futures_gauge_ = registry.GetGauge(prefix + "tracked_future_chunks");
}

void PsychicCache::OnOutcomeRecorded() {
  window_gauge_.Set(average_residence_);
  tracked_futures_gauge_.Set(static_cast<double>(futures_.size()));
}

RequestOutcome PsychicCache::HandleRequestImpl(const trace::Request& request) {
  VCDN_CHECK_MSG(prepared_, "PsychicCache::Prepare() must run before replay");
  const double now = request.arrival_time;
  if (first_request_time_ < 0.0) {
    first_request_time_ = now;
  }
  RequestOutcome outcome = MakeOutcome(request);
  ChunkRange range = ToChunkRange(request, config_.chunk_bytes);

  // Consume this request from every covered chunk's future list, so costs
  // below only see strictly-future requests.
  std::vector<ChunkId>& all_chunks = all_chunks_scratch_;
  std::vector<ChunkId>& missing = missing_scratch_;
  all_chunks.clear();
  missing.clear();
  all_chunks.reserve(range.count());
  for (uint32_t c = range.first; c <= range.last; ++c) {
    ChunkId chunk{request.video, c};
    all_chunks.push_back(chunk);
    auto it = futures_.find(chunk);
    VCDN_CHECK_MSG(it != futures_.end(), "request not present in prepared trace");
    FutureList& future = it->second;
    while (future.next < future.times.size() && future.times[future.next] <= now) {
      ++future.next;
    }
    if (!cached_.Contains(chunk)) {
      missing.push_back(chunk);
    }
  }
  outcome.hit_chunks = static_cast<uint32_t>(all_chunks.size() - missing.size());

  bool admit = false;
  std::vector<ChunkId>& victims = victims_scratch_;
  victims.clear();
  if (range.count() <= config_.disk_capacity_chunks) {
    // S'': cached chunks requested farthest in the future, skipping S.
    uint64_t needed = cached_.size() + missing.size();
    uint64_t evictions =
        needed > config_.disk_capacity_chunks ? needed - config_.disk_capacity_chunks : 0;
    if (evictions > 0) {
      cached_.ScanInOrder([&](const auto& item) {
        const ChunkId& chunk = item.second;
        if (chunk.video == request.video && chunk.index >= range.first &&
            chunk.index <= range.last) {
          return true;
        }
        victims.push_back(chunk);
        return victims.size() < evictions;
      });
      VCDN_CHECK(victims.size() == evictions);
    }

    double window = CacheAge(now);
    double min_cost = cost_.min_cost();

    // Eq. (13).
    double cost_serve = static_cast<double>(missing.size()) * cost_.fill_cost();
    for (const ChunkId& chunk : victims) {
      if (const FutureList* future = FindFuture(chunk)) {
        cost_serve += FutureCost(*future, now, window) * min_cost;
      }
    }
    // Eq. (14).
    double cost_redirect = static_cast<double>(all_chunks.size()) * cost_.redirect_cost();
    for (const ChunkId& chunk : missing) {
      const FutureList* future = FindFuture(chunk);
      VCDN_DCHECK(future != nullptr);
      cost_redirect += FutureCost(*future, now, window) * min_cost;
    }
    admit = cost_serve <= cost_redirect;
  }

  if (admit) {
    for (const ChunkId& chunk : victims) {
      cached_.Erase(chunk);
      const double* filled_at = fill_time_.Peek(chunk);
      VCDN_DCHECK(filled_at != nullptr);
      double residence = now - *filled_at;
      fill_time_.Erase(chunk);
      if (!residence_initialized_) {
        average_residence_ = residence;
        residence_initialized_ = true;
      } else {
        average_residence_ =
            kAgeSmoothing * residence + (1.0 - kAgeSmoothing) * average_residence_;
      }
      ++outcome.evicted_chunks;
    }
    for (const ChunkId& chunk : all_chunks) {
      const FutureList* future = FindFuture(chunk);
      double next_time = future != nullptr ? NextRequestTime(*future) : kInfinity;
      // Re-keys if present (next request changed), fills otherwise.
      if (cached_.InsertOrUpdate(chunk, next_time)) {
        fill_time_.InsertOrTouch(chunk, now);
        ++outcome.filled_chunks;
      }
    }
    outcome.decision = Decision::kServe;
  } else {
    // Redirected; cached chunks in S still need their next-request key
    // refreshed (this arrival was consumed from their future list).
    for (const ChunkId& chunk : all_chunks) {
      if (cached_.Contains(chunk)) {
        const FutureList* future = FindFuture(chunk);
        cached_.InsertOrUpdate(chunk, future != nullptr ? NextRequestTime(*future) : kInfinity);
      }
    }
    outcome.decision = Decision::kRedirect;
  }
  return outcome;
}

}  // namespace vcdn::core
