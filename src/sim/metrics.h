// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Metrics accounting for trace replay, in the paper's units (Sec. 9):
//
//   * redirection ratio  = redirected bytes / requested bytes;
//   * "Ingress %"        = ingress-to-egress percentage, i.e. the fraction of
//                          served traffic that incurred cache-fill;
//   * cache efficiency   = Eq. (2), with fills at chunk granularity and
//                          redirects at byte granularity.
//
// Totals are kept for the whole run and for a steady-state measurement
// window ("the average over the second half of the month is taken to exclude
// the initial cache warmup phase"), plus hourly buckets for the Fig. 3 time
// series.

#ifndef VCDN_SRC_SIM_METRICS_H_
#define VCDN_SRC_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cost_model.h"

namespace vcdn::sim {

struct ReplayTotals {
  uint64_t requests = 0;
  uint64_t served_requests = 0;
  uint64_t redirected_requests = 0;
  uint64_t requested_bytes = 0;
  uint64_t served_bytes = 0;      // egress: bytes of served requests
  uint64_t redirected_bytes = 0;  // bytes of redirected requests
  uint64_t filled_bytes = 0;      // ingress: filled chunks * chunk size
  uint64_t evicted_chunks = 0;
  // Chunk-granular counters (the units of the Sec. 7 LP objective).
  uint64_t requested_chunks = 0;
  uint64_t filled_chunks = 0;
  uint64_t redirected_chunks = 0;
  // Background prefetches (Sec. 10 proactive caching); also included in
  // filled_bytes / filled_chunks since they are real ingress.
  uint64_t proactive_filled_chunks = 0;
  // Requests the server never saw because a fault-injected outage window
  // covered them (Decision::kUnavailable); served by the origin upstream.
  uint64_t unavailable_requests = 0;
  uint64_t unavailable_bytes = 0;
  uint64_t unavailable_chunks = 0;

  void Accumulate(const core::RequestOutcome& outcome, uint64_t chunk_bytes);

  // Field-wise sum, for aggregating per-server totals into fleet-wide ones.
  void Add(const ReplayTotals& other);

  // Eq. (2). Unavailable traffic is charged like a redirect: the bytes still
  // travel to the origin, the cache just was not there to decide.
  double Efficiency(const core::CostModel& cost) const;
  // Eq. (2) with every quantity measured in chunks, matching the units of
  // the offline Optimal LP (Sec. 7) for Fig. 2 comparisons.
  double ChunkEfficiency(const core::CostModel& cost) const;
  // Ingress-to-egress fraction in [0, +inf). Edge cases are finite and
  // NaN-free: 0 when nothing was filled; when fills happened but nothing was
  // served (proactive fills on an all-redirect run), falls back to requested
  // bytes as the denominator so the ingress is still visible.
  double IngressFraction() const;
  // Redirected-bytes fraction of requested bytes; 0 when nothing requested.
  double RedirectFraction() const;
  // Fraction of requests the server was up for; 1 when nothing requested.
  double Availability() const;
};

// One Fig. 3-style time-series point (per bucket, e.g. per hour).
struct SeriesPoint {
  double bucket_start = 0.0;
  uint64_t requested_bytes = 0;
  uint64_t served_bytes = 0;
  uint64_t redirected_bytes = 0;
  uint64_t filled_bytes = 0;
  uint64_t unavailable_bytes = 0;  // outage traffic, origin-served
};

class MetricsCollector {
 public:
  // measurement_start: requests at or after this time also accumulate into
  // the steady-state totals. bucket_seconds: time-series resolution.
  MetricsCollector(uint64_t chunk_bytes, double measurement_start, double bucket_seconds);

  // arrival_time must be >= 0: bucket i covers [i, i + 1) x bucket_seconds.
  void Record(double arrival_time, const core::RequestOutcome& outcome);

  const ReplayTotals& totals() const { return totals_; }
  const ReplayTotals& steady() const { return steady_; }
  // One point per bucket up to the last one recorded into; buckets nothing
  // arrived in are zero.
  const std::vector<SeriesPoint>& Series() const { return series_; }

 private:
  uint64_t chunk_bytes_;
  double measurement_start_;
  double bucket_seconds_;
  ReplayTotals totals_;
  ReplayTotals steady_;
  std::vector<SeriesPoint> series_;
};

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_METRICS_H_
