// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Classic caching baselines. The paper argues (Secs. 2-3) that standard
// replacement-only caches cannot manage the ingress-vs-redirect tradeoff;
// these implementations quantify that claim in the ablation benches and
// anchor the test suite:
//
//   * AlwaysFillLruCache -- the standard Web-proxy behaviour: serve every
//     request, cache-fill every miss, evict LRU chunks. Never redirects
//     (except for ranges wider than the disk). Its ingress is the worst case.
//   * BeladyCache -- offline fill-always cache with Belady's MIN replacement
//     (evict the chunk requested farthest in the future). The classic
//     optimal *replacement* policy, which still lacks an admission/redirect
//     decision; contrasted with Psychic/Optimal in tests and benches.
//
// All three run on the flat hot-path containers (FlatLruMap / ScoreHeap).

#ifndef VCDN_SRC_CORE_BASELINE_CACHES_H_
#define VCDN_SRC_CORE_BASELINE_CACHES_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/container/flat_lru_map.h"
#include "src/container/score_heap.h"
#include "src/core/cache_algorithm.h"

namespace vcdn::core {

class AlwaysFillLruCache : public CacheAlgorithm {
 public:
  explicit AlwaysFillLruCache(const CacheConfig& config) : CacheAlgorithm(config) {
    disk_.Reserve(static_cast<size_t>(config.disk_capacity_chunks));
  }

  std::string_view name() const override { return "FillLRU"; }
  uint64_t used_chunks() const override { return disk_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return disk_.Contains(chunk); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;  // LRU order

 private:
  container::FlatLruMap<ChunkId, double, ChunkIdHash> disk_;
  std::vector<uint32_t> missing_scratch_;  // reused: no steady-state allocation
};

// Classic fill-always cache with Least-Frequently-Used replacement (Sec. 2
// cites LFU among the standard policies). Frequencies are exponentially aged
// so stale once-hot chunks ("cache pollution", a known LFU weakness the
// paper's EWMA IATs avoid) eventually churn out.
class FillLfuCache : public CacheAlgorithm {
 public:
  explicit FillLfuCache(const CacheConfig& config, double aging_halflife_seconds = 6.0 * 3600.0)
      : CacheAlgorithm(config), aging_halflife_(aging_halflife_seconds) {
    VCDN_CHECK(aging_halflife_seconds > 0.0);
    cached_.Reserve(static_cast<size_t>(config.disk_capacity_chunks));
  }

  std::string_view name() const override { return "FillLFU"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return cached_.Contains(chunk); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;  // least frequent first

 private:
  // Time-invariant LFU key: log2(aged count) + t/halflife. Aging multiplies
  // every count by the same factor per unit time, so this log-space key
  // orders chunks identically at all times (same idea as Cafe's Theorem 1
  // virtual timestamps) without unbounded growth.
  double BumpKey(double old_key, double now) const;

  double aging_halflife_;
  // Cached chunks ordered by the log-space frequency key; Top() is the
  // least frequently used chunk.
  container::ScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/false> cached_;
  std::vector<ChunkId> missing_scratch_;
  std::vector<ChunkId> victims_scratch_;
};

class BeladyCache : public CacheAlgorithm {
 public:
  explicit BeladyCache(const CacheConfig& config) : CacheAlgorithm(config) {
    cached_.Reserve(static_cast<size_t>(config.disk_capacity_chunks));
  }

  void Prepare(const trace::Trace& trace) override;
  bool requires_full_trace() const override { return true; }
  std::string_view name() const override { return "Belady"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return cached_.Contains(chunk); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;  // farthest future first

 private:
  struct FutureList {
    std::vector<double> times;
    size_t next = 0;
  };

  bool prepared_ = false;
  std::unordered_map<ChunkId, FutureList, ChunkIdHash> futures_;
  // Scored by next request time; Top() = farthest future = Belady victim.
  container::ScoreHeap<ChunkId, double, ChunkIdHash, /*kMaxFirst=*/true> cached_;
  std::vector<ChunkId> missing_scratch_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_BASELINE_CACHES_H_
