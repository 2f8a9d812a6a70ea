// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Cafe Cache (Sec. 6): Chunk-Aware, Fill-Efficient video cache.
//
// For each request R over chunk set S (missing subset S', eviction victims
// S''), Cafe serves iff the expected cost of serving is below the expected
// cost of redirecting:
//
//   E[serve]    = |S'| C_F + sum_{x in S''} (T / IAT_x) min(C_F, C_R)   (Eq. 6)
//   E[redirect] = |S|  C_R + sum_{x in S'} (T / IAT_x) min(C_F, C_R)   (Eq. 7)
//
// Chunk popularity is a per-chunk EWMA inter-arrival time (Eq. 8):
//   dt_x <- gamma (t - t_x) + (1 - gamma) dt_x;  t_x <- t
//
// Cached chunks are kept ordered under the *virtual timestamp* of Theorem 1
// evaluated at the fixed reference T0 = 0:
//   key_x = gamma * t_x - (1 - gamma) * dt_x
// which orders chunks identically to IAT at any time (smaller key <=> larger
// IAT <=> less popular). Keys must all be computed at one common T0 -- the
// in-text form key_x(t) = t - IAT_x(t) drifts by (1-gamma)t and is only
// consistent per Theorem 1's fixed-T0 statement; see cafe_cache_test.cc for
// the property test.
//
// The lookahead window T is the cache age, measured as the IAT of the least
// popular cached chunk. Chunks never seen before inherit the largest IAT
// among their video's cached chunks (Sec. 6's final optimization); failing
// that they contribute no expected future cost.
//
// The chunk table. Every chunk Cafe tracks -- cached, or remembered in the
// popularity history after a redirect or an eviction -- lives in exactly one
// 40-byte slot of one slab, found through one FlatIndex<ChunkId>. The slot
// holds the chunk id and its EWMA stat, and its state decides which
// intrusive structures thread through it:
//
//   * cached  -- a min-HandleHeap ordered by (virtual key, id); Top is the
//                least popular cached chunk (victim order, cache age);
//   * history -- a recency list, newest first, that CleanupHistory trims
//                from the tail; with options.proactive, also a max-HandleHeap
//                of candidates (Top = most popular uncached chunk).
//
// The virtual key is recomputed from the slot's stat rather than stored,
// which keeps a slot at 40 bytes; it is the expression the oracle evaluates
// once and stores, so the value is the same. Each video's cached chunks are
// listed by slot handle in a FlatChunkSetMap, so the unseen-chunk estimate
// reads stats without probing. Classifying a requested chunk is the
// request's only probe for it; hits, fills from history, evictions to
// history and redirect touches are state changes on the slot handle it
// returned.
//
// Eq. 7 is costed before the victim scan, and the ordered scan stops once
// the running Eq. 6 sum exceeds it. Both sums add non-negative terms in the
// same order as a full scan, so rounding is monotone and the early exit
// never changes a decision. A request that is admitted always completes its
// scan, and the check that enough victims were found guards it.
//
// ReferenceCafeCache (tests/oracles/reference_cafe_cache.h) is the test
// oracle: the same algorithm on the seed's node-based containers. The two
// must produce bit-identical replay results.

#ifndef VCDN_SRC_CORE_CAFE_CACHE_H_
#define VCDN_SRC_CORE_CAFE_CACHE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/container/chunk_set_map.h"
#include "src/container/flat_index.h"
#include "src/container/flat_lru_map.h"
#include "src/container/handle_heap.h"
#include "src/core/cache_algorithm.h"
#include "src/core/chunk.h"

namespace vcdn::core {

struct CafeOptions {
  // EWMA smoothing factor gamma (Eq. 8); the paper uses 0.25 throughout.
  double gamma = 0.25;
  // History entries (tracked but uncached chunks) older than
  // retention_factor * cache_age / min(1, alpha) are garbage-collected,
  // mirroring xLRU's "historic data ... is regularly cleaned up".
  double history_retention_factor = 2.0;
  // Use the per-video largest-IAT estimate for never-seen chunks (the Sec. 6
  // optimization). Disabled in one ablation bench.
  bool estimate_unseen_from_video = true;

  // Proactive caching for spare ingress (Sec. 10 future work): during
  // off-peak hours ("such as proactive caching during early morning hours")
  // the cache prefetches the most popular *uncached* tracked chunks, as long
  // as they are more popular than the least popular cached chunk. Off-peak
  // is detected as the smoothed request rate dropping below
  // proactive_rate_threshold of the observed peak rate.
  bool proactive = false;
  double proactive_rate_threshold = 0.6;
  uint32_t proactive_fills_per_request = 2;
  // How much a spare (off-peak) ingress byte costs relative to C_F. The
  // point of Sec. 10's proactive caching is that night-time uplink capacity
  // is otherwise wasted, so its effective cost is below the C_F charged at
  // peak; a prefetch happens when its expected future savings exceed
  // C_F * this discount (1.0 = spare ingress is not actually cheaper).
  double proactive_cost_discount = 0.5;
};

// Smoothing for the request-rate estimate behind proactive caching, and the
// decay of its peak tracker (shared with the reference oracle in tests/).
inline constexpr double kProactiveRateSmoothing = 0.02;

class CafeCache : public CacheAlgorithm {
 public:
  explicit CafeCache(const CacheConfig& config, const CafeOptions& options = {});

  std::string_view name() const override { return "Cafe"; }
  uint64_t used_chunks() const override { return cached_.size(); }
  bool ContainsChunk(const ChunkId& chunk) const override;

  // IAT of the least popular cached chunk at `now` (the window T / cache
  // age); 0 when the cache is empty. Exposed for tests.
  double CacheAge(double now) const;

  // Estimated IAT of a chunk at `now`: from its own stat if tracked,
  // otherwise from its video's cached chunks, otherwise +infinity.
  // Exposed for tests.
  double EstimateIat(const ChunkId& chunk, double now) const;

  size_t tracked_history_chunks() const { return history_size_; }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  // Software-pipelined batch admission: pre-hashes every chunk id in the
  // batch and prefetches request i+k's index lines while request i runs
  // the Eq. 6-7 cost model. Bit-identical to the base loop at any batch size
  // -- prefetching and hash reuse are pure scheduling.
  void HandleRequestBatchImpl(const trace::Request* requests, size_t count,
                              RequestOutcome* outcomes) override;
  // Evicts least popular first; the victims' stats move to history, so a
  // cold restart loses the disk but keeps the popularity signal.
  uint64_t EvictDownTo(uint64_t max_chunks) override;
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  // The `prev` of a cached slot, which is on no recency list. (A freed slot
  // is on the free list, linked through `next`.)
  static constexpr uint32_t kCachedMark = UINT32_MAX - 1;

  struct ChunkStat {
    double dt = 0.0;      // EWMA-smoothed inter-arrival time
    double t_last = 0.0;  // last access time
  };

  // One tracked chunk. `heap_pos` is its position in cached_ while cached,
  // or in candidates_ while in history with options.proactive set; `prev`
  // and `next` are its history recency links (see kCachedMark).
  struct Slot {
    VideoId video = 0;
    uint32_t index = 0;
    uint32_t heap_pos = 0;
    ChunkStat stat;
    uint32_t prev = kNil;
    uint32_t next = kNil;

    ChunkId id() const { return ChunkId{video, index}; }
  };
  // Cafe's peak memory is its history: a tracked chunk must cost no more
  // than a FlatLruMap<ChunkId, ChunkStat> entry (id, stat, two links).
  static_assert(sizeof(Slot) == 40, "a tracked chunk must stay at 40 bytes");

  // HandleHeap's view of the slab: (virtual key, id) toward the top, min
  // first for cached_, max first for candidates_.
  struct HeapKey {
    double key;
    ChunkId id;
  };
  template <bool kMaxFirst>
  struct HeapOps {
    std::vector<Slot>* slots;
    double gamma;
    HeapKey KeyOf(uint32_t h) const {
      const Slot& s = (*slots)[h];
      return HeapKey{VirtualKeyOf(s.stat, gamma), s.id()};
    }
    bool Before(const HeapKey& a, const HeapKey& b) const {
      if constexpr (kMaxFirst) {
        if (a.key != b.key) {
          return b.key < a.key;
        }
        return b.id < a.id;
      } else {
        if (a.key != b.key) {
          return a.key < b.key;
        }
        return a.id < b.id;
      }
    }
    void SetPos(uint32_t h, uint32_t pos) const { (*slots)[h].heap_pos = pos; }
  };
  HeapOps<false> CachedOps() { return {&slots_, options_.gamma}; }
  HeapOps<true> CandidateOps() { return {&slots_, options_.gamma}; }

  struct IdAtFn {
    const std::vector<Slot>* slots;
    ChunkId operator()(uint32_t h) const { return (*slots)[h].id(); }
  };
  IdAtFn IdAt() const { return IdAtFn{&slots_}; }

  // How many requests ahead the batched path issues prefetches: far enough
  // that the probe lines arrive before use (~1 request's work per step, a
  // few hundred cycles), near enough that they are not evicted again and at
  // most ~3 requests' worth of hints are in flight. See docs/PERFORMANCE.md.
  static constexpr size_t kPrefetchDistance = 4;

  // Pre-hashed probe targets of one request: the video hash shared by
  // video_seen_ and video_chunks_, and one index_ hash per requested chunk.
  struct RequestHashes {
    uint32_t video_hash = 0;
    std::vector<uint32_t> chunk_hashes;  // one per chunk of the range
  };

  // Theorem-1 virtual timestamp at T0 = 0.
  static double VirtualKeyOf(const ChunkStat& stat, double gamma) {
    return gamma * stat.t_last - (1.0 - gamma) * stat.dt;
  }
  double IatOf(const ChunkStat& stat, double now) const;
  void UpdateStat(ChunkStat& stat, double now) const;
  bool IsCached(uint32_t h) const { return slots_[h].prev == kCachedMark; }

  // The single-request admission path, shared by the unbatched and batched
  // entry points; `hashes` must be ComputeHashes of `request`.
  RequestOutcome HandleOne(const trace::Request& request, const RequestHashes& hashes);
  void ComputeHashes(const trace::Request& request, RequestHashes& out) const;
  // Issues the prefetch hints for a request about to be handled.
  void PrefetchFor(const RequestHashes& hashes) const;

  // Sec. 6: the largest IAT among `video`'s cached chunks, or +infinity
  // (also when the optimization is disabled).
  double EstimateIatFromVideo(VideoId video, uint32_t video_hash, double now) const;
  // The initial stat of a chunk seen for the first time.
  ChunkStat FreshStat(VideoId video, uint32_t video_hash, double now) const;
  void CleanupHistory(double now);

  // Chunk-table slots: allocation and release, index entry included.
  uint32_t NewSlot(const ChunkId& chunk, uint32_t chunk_hash, const ChunkStat& stat);
  void FreeSlot(uint32_t h);
  // State transitions. A slot enters the cache from history or fresh from
  // NewSlot and leaves it only into history; it enters history fresh or by
  // eviction and leaves it by being cached or trimmed.
  void CacheSlot(uint32_t h, uint32_t video_hash);
  void EvictSlot(uint32_t h);
  // History membership: the recency list plus, with options.proactive, the
  // candidate heap. HistoryTouch makes a slot the newest after its stat
  // changed.
  void HistoryPush(uint32_t h);
  void HistoryRemove(uint32_t h);
  void HistoryTouch(uint32_t h);
  void LinkFront(uint32_t h);
  void Unlink(uint32_t h);
  // Off-peak prefetching; returns the number of chunks filled.
  uint32_t ProactiveFill(double now);

  CafeOptions options_;

  // The chunk table: slot slab, free list, and chunk -> slot index.
  std::vector<Slot> slots_;
  uint32_t free_ = kNil;
  container::FlatIndex<ChunkId, ChunkIdHash> index_;
  // Cached slots by (virtual key, id), least popular on top.
  container::HandleHeap cached_;
  // History slots by recency (head = newest) and, with options.proactive,
  // by (virtual key, id), most popular on top.
  uint32_t history_head_ = kNil;
  uint32_t history_tail_ = kNil;
  size_t history_size_ = 0;
  container::HandleHeap candidates_;
  // Slot handles of each video's cached chunks (the unseen-chunk estimate).
  container::FlatChunkSetMap video_chunks_;
  // Videos ever seen (recency-ordered, cleaned with the history); a request
  // for a never-seen video is always redirected, as in xLRU.
  container::FlatLruMap<VideoId, double> video_seen_;
  double first_request_time_ = -1.0;

  // Request-rate tracking for off-peak detection.
  double last_arrival_ = -1.0;
  double rate_estimate_ = 0.0;
  double peak_rate_ = 0.0;

  // Reused across requests so the serve path does not allocate in steady
  // state.
  std::vector<ChunkId> chunks_scratch_;
  std::vector<uint32_t> handles_scratch_;
  std::vector<uint32_t> victims_scratch_;
  // Hash scratch: one slot for the unbatched path, a ring of
  // kPrefetchDistance + 1 slots for the batched path (slot i + distance is
  // being written while slot i is being consumed; they never overlap).
  RequestHashes own_hashes_;
  std::array<RequestHashes, kPrefetchDistance + 1> batch_hashes_;

  // Observability (no-ops until AttachMetrics): the admission-decision mix of
  // Eqs. (6)-(7) and the popularity-tracking queue depths.
  obs::Counter admit_serve_total_;
  obs::Counter admit_redirect_cost_total_;
  obs::Counter admit_redirect_unseen_total_;
  obs::Counter admit_redirect_too_wide_total_;
  obs::Counter proactive_fill_rounds_total_;
  obs::Gauge history_chunks_gauge_;
  obs::Gauge tracked_videos_gauge_;
  obs::Gauge cache_age_gauge_;
  obs::Gauge request_rate_gauge_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_CAFE_CACHE_H_
