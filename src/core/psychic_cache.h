// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Psychic Cache (Sec. 8): an offline greedy cache aware of future requests,
// used as a fast estimator of the maximum efficiency any online algorithm
// could reach with perfect prediction of access patterns.
//
// Psychic keeps, for every chunk x, the list L_x of its future request times
// (bounded to the next N entries; the paper found N = 10 sufficient). A
// request is served or redirected by the Cafe-style cost comparison, with the
// expected-future terms computed directly from the future:
//
//   E[serve]    = |S'| C_F + sum_{x in S''} sum_{t in L_x} T/(t - t_now) * min(C_F, C_R)  (Eq. 13)
//   E[redirect] = |S|  C_R + sum_{x in S'} sum_{t in L_x} T/(t - t_now) * min(C_F, C_R)   (Eq. 14)
//
// Eviction victims S'' are the cached chunks requested farthest in the future
// (never-again-requested chunks first), Belady-style. The window T is the
// cache age, which -- with no past-request history -- is tracked as the
// average time evicted chunks had stayed in the cache.

#ifndef VCDN_SRC_CORE_PSYCHIC_CACHE_H_
#define VCDN_SRC_CORE_PSYCHIC_CACHE_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
#include "src/core/cache_algorithm.h"

namespace vcdn::core {

struct PsychicOptions {
  // How many future requests per chunk enter the cost sums ("N = 10 has
  // proven sufficient in our experiments -- no gain with higher values").
  size_t future_horizon = 10;
};

class PsychicCache : public CacheAlgorithm {
 public:
  PsychicCache(const CacheConfig& config, const PsychicOptions& options = {});

  // Indexes the full request sequence: per-chunk future arrival times.
  void Prepare(const trace::Trace& trace) override;
  bool requires_full_trace() const override { return true; }

  std::string_view name() const override { return "Psychic"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return cached_.Contains(chunk); }

  // Average residence time of evicted chunks (the window T); falls back to
  // the elapsed trace time before the first eviction. Exposed for tests.
  double CacheAge(double now) const;

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  // Evicts farthest-future first. Forced evictions (resize / cold restart)
  // skip the residence-time average: they say nothing about churn.
  uint64_t EvictDownTo(uint64_t max_chunks) override;
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  struct FutureList {
    std::vector<double> times;  // all request arrival times for this chunk
    size_t next = 0;            // first index strictly in the future
  };

  // Sum over the next N future requests of T/(t - now); 0 if none.
  double FutureCost(const FutureList& future, double now, double window) const;
  // Arrival time of the chunk's next request, +infinity if none.
  double NextRequestTime(const FutureList& future) const;
  const FutureList* FindFuture(const ChunkId& chunk) const;

  PsychicOptions options_;
  bool prepared_ = false;

  std::unordered_map<ChunkId, FutureList, ChunkIdHash> futures_;
  // Cached chunks scored by next request time: Top() = farthest in the
  // future = first eviction victim (max-first heap, same (score, id) order
  // as an ordered set's reverse iteration).
  container::ScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/true> cached_;
  // Fill time of each cached chunk, for residence-time tracking (recency
  // order unused; the map is the flat slab store).
  container::FlatLruMap<ChunkId, double, ChunkIdHash> fill_time_;

  double first_request_time_ = -1.0;
  double average_residence_ = 0.0;
  bool residence_initialized_ = false;

  // Reused across requests so the serve path does not allocate in steady
  // state.
  std::vector<ChunkId> all_chunks_scratch_;
  std::vector<ChunkId> missing_scratch_;
  std::vector<ChunkId> victims_scratch_;

  // Observability (no-ops until AttachMetrics).
  obs::Gauge window_gauge_;
  obs::Gauge tracked_futures_gauge_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_PSYCHIC_CACHE_H_
