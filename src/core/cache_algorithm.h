// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The common interface of all cache algorithms (Problem 1 / Problem 2 in
// Sec. 4.3): for each request, either SERVE (cache-filling any missing
// chunks, evicting as needed) or REDIRECT the whole request. A request is
// always fully served or fully redirected, never split.

#ifndef VCDN_SRC_CORE_CACHE_ALGORITHM_H_
#define VCDN_SRC_CORE_CACHE_ALGORITHM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/chunk.h"
#include "src/core/cost_model.h"
#include "src/obs/metrics.h"
#include "src/trace/request.h"

namespace vcdn::core {

enum class Decision {
  kServe,     // serve from cache, filling any missing chunks first
  kRedirect,  // HTTP 302 to an alternative server
  // The server never saw the request (outage): the replay's fault layer
  // synthesizes these; cache algorithms themselves never return it.
  kUnavailable,
};

struct CacheConfig {
  uint64_t chunk_bytes = kDefaultChunkBytes;
  uint64_t disk_capacity_chunks = 0;  // must be > 0
  double alpha_f2r = 1.0;             // ingress-to-redirect preference (Sec. 4.1)
};

// Accounting for one handled request, in the units the cost model needs:
// fills are chunk-granular (a chunk is ingressed in full), redirects and the
// denominator of Eq. (2) are byte-granular.
struct RequestOutcome {
  Decision decision = Decision::kRedirect;
  uint64_t requested_bytes = 0;
  uint32_t requested_chunks = 0;
  uint32_t filled_chunks = 0;   // 0 when redirected
  uint32_t evicted_chunks = 0;  // evictions triggered by this fill
  uint32_t hit_chunks = 0;      // requested chunks already on disk
  // Background fills piggy-backed on this request by a proactive cache
  // (Sec. 10 "proactive caching for spare ingress"); charged as ingress.
  uint32_t proactive_filled_chunks = 0;
};

// Reusable carrier for batched admission (sim::Replay accumulates into one):
// a view of consecutive, time-ordered requests plus outcome storage that is
// kept alive across batches, so steady-state batching does not allocate. The
// requests stay owned by the trace.
struct RequestBatch {
  const trace::Request* requests = nullptr;
  size_t count = 0;
  std::vector<RequestOutcome> outcomes;
};

class CacheAlgorithm {
 public:
  explicit CacheAlgorithm(const CacheConfig& config) : config_(config), cost_(config.alpha_f2r) {
    VCDN_CHECK(config.disk_capacity_chunks > 0);
    VCDN_CHECK(config.chunk_bytes > 0);
  }
  virtual ~CacheAlgorithm() = default;

  CacheAlgorithm(const CacheAlgorithm&) = delete;
  CacheAlgorithm& operator=(const CacheAlgorithm&) = delete;

  // Offline algorithms (Psychic, Optimal) receive the full request sequence
  // before replay (Problem 2); online algorithms ignore this.
  virtual void Prepare(const trace::Trace& trace) { (void)trace; }

  // True for offline algorithms whose Prepare() indexes the whole trace;
  // such caches cannot be driven by sim::ReplayStream (there is no full
  // trace to hand them). Online algorithms -- everything the paper deploys
  // -- stream fine with the default.
  virtual bool requires_full_trace() const { return false; }

  // Handles one request; requests must arrive in non-decreasing time order.
  // Non-virtual choke point: dispatches to HandleRequestImpl and, when a
  // metrics registry is attached, records the outcome into the cache's
  // instruments.
  RequestOutcome HandleRequest(const trace::Request& request) {
    RequestOutcome outcome = HandleRequestImpl(request);
    if (metrics_attached_) {
      RecordOutcomes(&outcome, 1);
    }
    return outcome;
  }

  // Handles `count` consecutive, time-ordered requests through one virtual
  // dispatch. Observably identical to calling HandleRequest on each request
  // in order -- batching is a scheduling change, never a semantics change --
  // but lets an algorithm overlap independent memory accesses across the
  // batch (see CafeCache's software-pipelined override). `outcomes` must
  // hold at least `count` entries.
  void HandleRequestBatch(const trace::Request* requests, size_t count,
                          RequestOutcome* outcomes) {
    HandleRequestBatchImpl(requests, count, outcomes);
    if (metrics_attached_ && count > 0) {
      // Recording once per batch is observable only through a registry
      // snapshot, and callers cut batches at every snapshot point (bucket
      // flushes), so counter and gauge values agree with the unbatched path
      // wherever they can be read.
      RecordOutcomes(outcomes, count);
    }
  }

  // Convenience for RequestBatch-accumulating callers; grows the outcome
  // storage once and reuses it afterwards.
  void HandleRequestBatch(RequestBatch& batch) {
    if (batch.outcomes.size() < batch.count) {
      batch.outcomes.resize(batch.count);
    }
    HandleRequestBatch(batch.requests, batch.count, batch.outcomes.data());
  }

  // Registers this cache's instruments under "cache.<name>." and starts
  // recording every outcome (hits/fills/evictions/redirects, occupancy
  // gauge, request-size hdr histogram, plus subclass-specific instruments).
  // Idempotent per registry; attaching a second registry re-points the
  // handles. Counters of same-named caches in one registry aggregate.
  void AttachMetrics(obs::MetricsRegistry& registry) {
    const std::string prefix = "cache." + std::string(name()) + ".";
    requests_total_ = registry.GetCounter(prefix + "requests_total");
    served_total_ = registry.GetCounter(prefix + "served_total");
    redirected_total_ = registry.GetCounter(prefix + "redirected_total");
    hit_chunks_total_ = registry.GetCounter(prefix + "hit_chunks_total");
    filled_chunks_total_ = registry.GetCounter(prefix + "filled_chunks_total");
    proactive_filled_chunks_total_ =
        registry.GetCounter(prefix + "proactive_filled_chunks_total");
    evicted_chunks_total_ = registry.GetCounter(prefix + "evicted_chunks_total");
    used_chunks_gauge_ = registry.GetGauge(prefix + "used_chunks");
    // Log-bucketed: request sizes span KBs to GBs (1 KiB .. 1 GiB, 8
    // sub-buckets per octave = 12.5% relative error at every scale).
    request_bytes_hdr_ = registry.GetHdrHistogram(prefix + "request_bytes", 1024.0,
                                                  1024.0 * 1024.0 * 1024.0, 8);
    OnAttachMetrics(registry, prefix);
    metrics_attached_ = true;
  }

  bool metrics_attached() const { return metrics_attached_; }

  virtual std::string_view name() const = 0;

  // Re-targets the disk capacity at runtime (fault injection's disk-degrade
  // events, and a building block for elastic provisioning). Shrinking evicts
  // immediately, in the algorithm's own victim order, down to the new limit;
  // growing just raises the limit. Returns the number of chunks evicted.
  uint64_t Resize(uint64_t new_capacity_chunks) {
    VCDN_CHECK(new_capacity_chunks > 0);
    config_.disk_capacity_chunks = new_capacity_chunks;
    uint64_t evicted = EvictDownTo(new_capacity_chunks);
    if (metrics_attached_) {
      used_chunks_gauge_.Set(static_cast<double>(used_chunks()));
    }
    return evicted;
  }

  // Cold restart: drops every chunk on disk; capacity is unchanged and
  // popularity-tracking state survives (a restart loses the disk contents,
  // not the tracking database). Returns the number of chunks dropped.
  uint64_t DropContents() {
    uint64_t dropped = EvictDownTo(0);
    if (metrics_attached_) {
      used_chunks_gauge_.Set(static_cast<double>(used_chunks()));
    }
    return dropped;
  }

  // Re-targets the fill-to-redirect preference at runtime (Sec. 10 discusses
  // dynamic adjustment of alpha_F2R "in a small range through a control
  // loop"). Takes effect from the next request.
  virtual void SetAlphaF2r(double alpha_f2r) {
    VCDN_CHECK(alpha_f2r > 0.0);
    config_.alpha_f2r = alpha_f2r;
    cost_ = CostModel(alpha_f2r);
  }

  // Number of chunks currently stored.
  virtual uint64_t used_chunks() const = 0;

  // True if the given chunk is currently on disk (for tests/inspection).
  virtual bool ContainsChunk(const ChunkId& chunk) const = 0;

  const CacheConfig& config() const { return config_; }
  const CostModel& cost_model() const { return cost_; }

 protected:
  // The algorithm's actual request handling (old virtual HandleRequest).
  virtual RequestOutcome HandleRequestImpl(const trace::Request& request) = 0;

  // Batched counterpart of HandleRequestImpl. The default loops, so every
  // algorithm works unchanged at any batch size, and no library algorithm
  // overrides it; a wrapper may (perfbench's TracedCache times each batch).
  // An override must produce bit-identical outcomes and end-state to this
  // loop.
  virtual void HandleRequestBatchImpl(const trace::Request* requests, size_t count,
                                      RequestOutcome* outcomes) {
    for (size_t i = 0; i < count; ++i) {
      outcomes[i] = HandleRequestImpl(requests[i]);
    }
  }

  // Evicts, in the algorithm's victim order, until used_chunks() is at most
  // `max_chunks` (0 empties the disk). Returns the number evicted. Backs
  // Resize/DropContents; must not touch config_.disk_capacity_chunks.
  virtual uint64_t EvictDownTo(uint64_t max_chunks) = 0;

  // Subclass hook: register algorithm-specific instruments under `prefix`
  // (e.g. xLRU's tracker occupancy, Cafe's admission-decision mix).
  virtual void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) {
    (void)registry;
    (void)prefix;
  }

  // Subclass hook: refresh algorithm-specific gauges from the current state;
  // called once per recorded batch (a single request is a batch of one) while
  // metrics are attached.
  virtual void OnOutcomeRecorded() {}

  // Shared helper: outcome skeleton for a request.
  RequestOutcome MakeOutcome(const trace::Request& request) const {
    RequestOutcome outcome;
    outcome.requested_bytes = request.size_bytes();
    outcome.requested_chunks = ToChunkRange(request, config_.chunk_bytes).count();
    return outcome;
  }

  CacheConfig config_;
  CostModel cost_;

 private:
  // Folds a batch's outcomes into each counter once; the gauges read the
  // post-batch state. Request sizes still go to the histogram one by one.
  void RecordOutcomes(const RequestOutcome* outcomes, size_t count) {
    uint64_t served = 0;
    uint64_t hit_chunks = 0;
    uint64_t filled_chunks = 0;
    uint64_t proactive_filled_chunks = 0;
    uint64_t evicted_chunks = 0;
    for (size_t i = 0; i < count; ++i) {
      const RequestOutcome& outcome = outcomes[i];
      served += outcome.decision == Decision::kServe ? 1 : 0;
      hit_chunks += outcome.hit_chunks;
      filled_chunks += outcome.filled_chunks;
      proactive_filled_chunks += outcome.proactive_filled_chunks;
      evicted_chunks += outcome.evicted_chunks;
      request_bytes_hdr_.Observe(static_cast<double>(outcome.requested_bytes));
    }
    requests_total_.Increment(count);
    served_total_.Increment(served);
    redirected_total_.Increment(count - served);
    hit_chunks_total_.Increment(hit_chunks);
    // Matches ReplayTotals::filled_chunks: proactive prefetches are ingress.
    filled_chunks_total_.Increment(filled_chunks + proactive_filled_chunks);
    proactive_filled_chunks_total_.Increment(proactive_filled_chunks);
    evicted_chunks_total_.Increment(evicted_chunks);
    used_chunks_gauge_.Set(static_cast<double>(used_chunks()));
    OnOutcomeRecorded();
  }

  bool metrics_attached_ = false;
  obs::Counter requests_total_;
  obs::Counter served_total_;
  obs::Counter redirected_total_;
  obs::Counter hit_chunks_total_;
  obs::Counter filled_chunks_total_;
  obs::Counter proactive_filled_chunks_total_;
  obs::Counter evicted_chunks_total_;
  obs::Gauge used_chunks_gauge_;
  obs::HdrHistogram request_bytes_hdr_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_CACHE_ALGORITHM_H_
