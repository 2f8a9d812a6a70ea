// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Dynamic alpha_F2R control loop (Sec. 10): "dynamic adjustment of
// alpha_F2R, although not recommended in a wide range due to the resultant
// cache pollution and cache churn, can be considered in a small range
// through a control loop for better responsiveness to dynamics."
//
// AdaptiveAlphaCache wraps any CacheAlgorithm and steers its alpha_F2R so
// the server's ingress-to-egress fraction tracks an operator-set budget
// (e.g. a disk-constrained server that can afford writes for at most 5% of
// its egress). Control is multiplicative-increase / multiplicative-decrease
// on a fixed cadence, clamped to a small [min, max] range as the paper
// advises.

#ifndef VCDN_SRC_CORE_ADAPTIVE_ALPHA_H_
#define VCDN_SRC_CORE_ADAPTIVE_ALPHA_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/core/cache_algorithm.h"

namespace vcdn::core {

struct AdaptiveAlphaOptions {
  // Desired ingress as a fraction of egress (the "Ingress %" of Sec. 9).
  double target_ingress_fraction = 0.05;
  // Control range; the paper recommends keeping it small.
  double min_alpha = 1.0;
  double max_alpha = 4.0;
  // Control cadence.
  double adjust_interval_seconds = 3600.0;
};

class AdaptiveAlphaCache : public CacheAlgorithm {
 public:
  AdaptiveAlphaCache(std::unique_ptr<CacheAlgorithm> inner, const AdaptiveAlphaOptions& options);

  void Prepare(const trace::Trace& trace) override { inner_->Prepare(trace); }
  bool requires_full_trace() const override { return inner_->requires_full_trace(); }
  std::string_view name() const override { return name_; }
  uint64_t used_chunks() const override { return inner_->used_chunks(); }
  bool ContainsChunk(const ChunkId& chunk) const override { return inner_->ContainsChunk(chunk); }
  void SetAlphaF2r(double alpha_f2r) override;

  double current_alpha() const { return alpha_; }
  size_t adjustments() const { return adjustments_; }

 protected:
  RequestOutcome HandleRequestImpl(const trace::Request& request) override;
  // Forwards capacity changes to the wrapped cache. The base class already
  // updated this wrapper's config; Resize (not bare eviction) keeps the
  // inner cache's own capacity in sync.
  uint64_t EvictDownTo(uint64_t max_chunks) override {
    return max_chunks == 0 ? inner_->DropContents() : inner_->Resize(max_chunks);
  }
  // Also attaches the wrapped cache, so its own instrument set (under the
  // inner cache's name) is populated alongside the controller's.
  void OnAttachMetrics(obs::MetricsRegistry& registry, const std::string& prefix) override;
  void OnOutcomeRecorded() override;

 private:
  void MaybeAdjust(double now);

  std::unique_ptr<CacheAlgorithm> inner_;
  AdaptiveAlphaOptions options_;
  std::string name_;
  double alpha_;
  // Current measurement window.
  double window_start_ = -1.0;
  uint64_t window_served_bytes_ = 0;
  uint64_t window_filled_bytes_ = 0;
  uint64_t window_requests_ = 0;
  size_t adjustments_ = 0;

  // Observability (no-ops until AttachMetrics).
  obs::Gauge alpha_gauge_;
  obs::Counter adjustments_total_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_ADAPTIVE_ALPHA_H_
