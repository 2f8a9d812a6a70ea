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
// 40-byte slot of one slab. Slots are found through their video: a
// container::VideoTable holds one record per video, and the record's chunk
// row holds the video's slot handles by chunk number. A request probes its
// video once; classifying a requested chunk reads one row entry, and hits,
// fills from history, evictions to history and redirect touches are state
// changes on the slot handle it holds. A slot holds its video's record
// handle, its chunk number and its EWMA stat, and its state decides which
// intrusive structures thread through it:
//
//   * cached  -- a min-HandleHeap ordered by (virtual key, id); Top is the
//                least popular cached chunk (victim order, cache age); and
//                its video's chain of cached chunks, headed in the record,
//                which the unseen-chunk estimate walks;
//   * history -- a recency list, newest first, that CleanupHistory trims
//                from the tail; with options.proactive, also a max-HandleHeap
//                of candidates (Top = most popular uncached chunk).
//
// The table's recency list is the seen-video list. A video can leave it
// while it still tracks chunks (a cached chunk's t_last can be older than
// the horizon), so its record lives on until its row is empty. The virtual
// key is recomputed from the slot's stat rather than stored, which keeps a
// slot at 40 bytes; it is the expression the oracle evaluates once and
// stores, so the value is the same.
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

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/container/handle_heap.h"
#include "src/container/recency_list.h"
#include "src/container/video_table.h"
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

  size_t tracked_history_chunks() const { return history_.size(); }
  // Videos on the seen list, and live video records: the seen ones plus the
  // forgotten ones that still track chunks.
  size_t tracked_videos() const { return videos_.listed(); }
  size_t video_records() const { return videos_.size(); }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
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

  // One tracked chunk of the video whose record is `record`. `heap_pos` is
  // its position in cached_ while cached, or in candidates_ while in history
  // with options.proactive set; `sibling` links its video's chain of cached
  // chunks while cached; `prev` and `next` are its history recency links
  // (see kCachedMark).
  struct Slot {
    uint32_t record = 0;
    uint32_t sibling = kNil;
    uint32_t index = 0;
    uint32_t heap_pos = 0;
    ChunkStat stat;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };
  // Cafe's peak memory is its history: a tracked chunk must cost no more
  // than a FlatLruMap<ChunkId, ChunkStat> entry (id, stat, two links).
  static_assert(sizeof(Slot) == 40, "a tracked chunk must stay at 40 bytes");

  // HandleHeap's view of the slab: (virtual key, id) toward the top, min
  // first for cached_, max first for candidates_. The id, read through the
  // record, only breaks ties.
  struct HeapKey {
    double key;
    uint32_t slot;
  };
  template <bool kMaxFirst>
  struct HeapOps {
    std::vector<Slot>* slots;
    const container::VideoTable* videos;
    double gamma;
    HeapKey KeyOf(uint32_t h) const { return HeapKey{VirtualKeyOf((*slots)[h].stat, gamma), h}; }
    ChunkId IdOf(uint32_t h) const {
      const Slot& s = (*slots)[h];
      return ChunkId{videos->video(s.record), s.index};
    }
    bool Before(const HeapKey& a, const HeapKey& b) const {
      if constexpr (kMaxFirst) {
        if (a.key != b.key) {
          return b.key < a.key;
        }
        return IdOf(b.slot) < IdOf(a.slot);
      } else {
        if (a.key != b.key) {
          return a.key < b.key;
        }
        return IdOf(a.slot) < IdOf(b.slot);
      }
    }
    void SetPos(uint32_t h, uint32_t pos) const { (*slots)[h].heap_pos = pos; }
  };
  HeapOps<false> CachedOps() { return {&slots_, &videos_, options_.gamma}; }
  HeapOps<true> CandidateOps() { return {&slots_, &videos_, options_.gamma}; }

  // Theorem-1 virtual timestamp at T0 = 0.
  static double VirtualKeyOf(const ChunkStat& stat, double gamma) {
    return gamma * stat.t_last - (1.0 - gamma) * stat.dt;
  }
  double IatOf(const ChunkStat& stat, double now) const;
  void UpdateStat(ChunkStat& stat, double now) const;
  bool IsCached(uint32_t h) const { return slots_[h].prev == kCachedMark; }

  // Sec. 6: the largest IAT among the cached chunks of the video whose
  // record is `r` (kNil: none), or +infinity (also when the optimization is
  // disabled).
  double EstimateIatFromVideo(uint32_t r, double now) const;
  // The initial stat of a chunk seen for the first time.
  ChunkStat FreshStat(uint32_t r, double now) const;
  void CleanupHistory(double now);

  // Chunk-table slots: allocation and release, row entry included.
  uint32_t NewSlot(uint32_t r, uint32_t chunk, const ChunkStat& stat);
  void FreeSlot(uint32_t h);
  // State transitions. A slot enters the cache from history or fresh from
  // NewSlot and leaves it only into history; it enters history fresh or by
  // eviction and leaves it by being cached or trimmed.
  void CacheSlot(uint32_t h);
  void EvictSlot(uint32_t h);
  // History membership: the recency list plus, with options.proactive, the
  // candidate heap. HistoryTouch makes a slot the newest after its stat
  // changed.
  void HistoryPush(uint32_t h);
  void HistoryRemove(uint32_t h);
  void HistoryTouch(uint32_t h);
  // Off-peak prefetching; returns the number of chunks filled.
  uint32_t ProactiveFill(double now);

  CafeOptions options_;

  // The chunk table: slot slab and free list, found through each video's
  // record. The records' recency list is the seen-video list: a request for
  // a video off it is always redirected, as in xLRU.
  std::vector<Slot> slots_;
  uint32_t free_ = kNil;
  container::VideoTable videos_;
  // Cached slots by (virtual key, id), least popular on top.
  container::HandleHeap cached_;
  // History slots by recency (head = newest) and, with options.proactive,
  // by (virtual key, id), most popular on top.
  container::RecencyList history_;
  container::HandleHeap candidates_;
  double first_request_time_ = -1.0;

  // Request-rate tracking for off-peak detection.
  double last_arrival_ = -1.0;
  double rate_estimate_ = 0.0;
  double peak_rate_ = 0.0;

  // Reused across requests so the serve path does not allocate in steady
  // state.
  std::vector<uint32_t> victims_scratch_;

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
