// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/metrics.h"

#include "src/util/check.h"

namespace vcdn::sim {

void ReplayTotals::Accumulate(const core::RequestOutcome& outcome, uint64_t chunk_bytes) {
  ++requests;
  requested_bytes += outcome.requested_bytes;
  requested_chunks += outcome.requested_chunks;
  if (outcome.decision == core::Decision::kServe) {
    ++served_requests;
    served_bytes += outcome.requested_bytes;
    filled_bytes += static_cast<uint64_t>(outcome.filled_chunks) * chunk_bytes;
    filled_chunks += outcome.filled_chunks;
  } else if (outcome.decision == core::Decision::kUnavailable) {
    ++unavailable_requests;
    unavailable_bytes += outcome.requested_bytes;
    unavailable_chunks += outcome.requested_chunks;
  } else {
    ++redirected_requests;
    redirected_bytes += outcome.requested_bytes;
    redirected_chunks += outcome.requested_chunks;
  }
  // Proactive prefetches are ingress regardless of this request's decision.
  filled_bytes += static_cast<uint64_t>(outcome.proactive_filled_chunks) * chunk_bytes;
  filled_chunks += outcome.proactive_filled_chunks;
  proactive_filled_chunks += outcome.proactive_filled_chunks;
  evicted_chunks += outcome.evicted_chunks;
}

void ReplayTotals::Add(const ReplayTotals& other) {
  requests += other.requests;
  served_requests += other.served_requests;
  redirected_requests += other.redirected_requests;
  requested_bytes += other.requested_bytes;
  served_bytes += other.served_bytes;
  redirected_bytes += other.redirected_bytes;
  filled_bytes += other.filled_bytes;
  evicted_chunks += other.evicted_chunks;
  requested_chunks += other.requested_chunks;
  filled_chunks += other.filled_chunks;
  redirected_chunks += other.redirected_chunks;
  proactive_filled_chunks += other.proactive_filled_chunks;
  unavailable_requests += other.unavailable_requests;
  unavailable_bytes += other.unavailable_bytes;
  unavailable_chunks += other.unavailable_chunks;
}

double ReplayTotals::ChunkEfficiency(const core::CostModel& cost) const {
  if (requested_chunks == 0) {
    return 0.0;
  }
  return cost.Efficiency(filled_chunks, redirected_chunks + unavailable_chunks, requested_chunks);
}

double ReplayTotals::Efficiency(const core::CostModel& cost) const {
  if (requested_bytes == 0) {
    return 0.0;
  }
  return cost.Efficiency(filled_bytes, redirected_bytes + unavailable_bytes, requested_bytes);
}

double ReplayTotals::IngressFraction() const {
  if (filled_bytes == 0) {
    return 0.0;
  }
  if (served_bytes == 0) {
    // Fills without egress (proactive fills while every request redirected):
    // the egress-normalized ratio is undefined, so report ingress per
    // requested byte instead of silently returning 0.
    return requested_bytes == 0
               ? 0.0
               : static_cast<double>(filled_bytes) / static_cast<double>(requested_bytes);
  }
  return static_cast<double>(filled_bytes) / static_cast<double>(served_bytes);
}

double ReplayTotals::RedirectFraction() const {
  if (requested_bytes == 0) {
    return 0.0;
  }
  return static_cast<double>(redirected_bytes) / static_cast<double>(requested_bytes);
}

double ReplayTotals::Availability() const {
  if (requests == 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(unavailable_requests) / static_cast<double>(requests);
}

MetricsCollector::MetricsCollector(uint64_t chunk_bytes, double measurement_start,
                                   double bucket_seconds)
    : chunk_bytes_(chunk_bytes),
      measurement_start_(measurement_start),
      bucket_seconds_(bucket_seconds) {
  VCDN_CHECK(bucket_seconds > 0.0);
}

void MetricsCollector::Record(double arrival_time, const core::RequestOutcome& outcome) {
  VCDN_CHECK(arrival_time >= 0.0);
  totals_.Accumulate(outcome, chunk_bytes_);
  if (arrival_time >= measurement_start_) {
    steady_.Accumulate(outcome, chunk_bytes_);
  }
  const auto bucket = static_cast<size_t>(arrival_time / bucket_seconds_);
  while (series_.size() <= bucket) {
    const double start = static_cast<double>(series_.size()) * bucket_seconds_;
    series_.emplace_back().bucket_start = start;
  }
  SeriesPoint& point = series_[bucket];
  point.requested_bytes += outcome.requested_bytes;
  if (outcome.decision == core::Decision::kServe) {
    point.served_bytes += outcome.requested_bytes;
    point.filled_bytes += static_cast<uint64_t>(outcome.filled_chunks) * chunk_bytes_;
  } else if (outcome.decision == core::Decision::kUnavailable) {
    point.unavailable_bytes += outcome.requested_bytes;
  } else {
    point.redirected_bytes += outcome.requested_bytes;
  }
  point.filled_bytes += static_cast<uint64_t>(outcome.proactive_filled_chunks) * chunk_bytes_;
}

}  // namespace vcdn::sim
