// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/adaptive_alpha.h"

#include <algorithm>

namespace vcdn::core {

namespace {
// Multiplicative alpha step per adjustment.
constexpr double kStep = 1.15;
// Tolerance band around the target within which alpha is left alone:
// +-20% of the target.
constexpr double kDeadband = 0.2;
}  // namespace

AdaptiveAlphaCache::AdaptiveAlphaCache(std::unique_ptr<CacheAlgorithm> inner,
                                       const AdaptiveAlphaOptions& options)
    : CacheAlgorithm(inner->config()),
      inner_(std::move(inner)),
      options_(options),
      alpha_(inner_->config().alpha_f2r) {
  VCDN_CHECK(options_.min_alpha > 0.0);
  VCDN_CHECK(options_.min_alpha <= options_.max_alpha);
  VCDN_CHECK(options_.target_ingress_fraction > 0.0);
  VCDN_CHECK(options_.adjust_interval_seconds > 0.0);
  name_ = "Adaptive(" + std::string(inner_->name()) + ")";
  alpha_ = std::clamp(alpha_, options_.min_alpha, options_.max_alpha);
  inner_->SetAlphaF2r(alpha_);
  CacheAlgorithm::SetAlphaF2r(alpha_);
}

void AdaptiveAlphaCache::SetAlphaF2r(double alpha_f2r) {
  alpha_ = std::clamp(alpha_f2r, options_.min_alpha, options_.max_alpha);
  inner_->SetAlphaF2r(alpha_);
  CacheAlgorithm::SetAlphaF2r(alpha_);
}

void AdaptiveAlphaCache::MaybeAdjust(double now) {
  if (window_start_ < 0.0) {
    window_start_ = now;
    return;
  }
  if (now - window_start_ < options_.adjust_interval_seconds) {
    return;
  }
  if (window_requests_ > 0) {
    // A window that served nothing has, by definition, no ingress: treat it
    // as fraction 0 so an over-tightened alpha gets relaxed again instead of
    // wedging the controller.
    double ingress_fraction =
        window_served_bytes_ > 0 ? static_cast<double>(window_filled_bytes_) /
                                       static_cast<double>(window_served_bytes_)
                                 : 0.0;
    double target = options_.target_ingress_fraction;
    if (ingress_fraction > target * (1.0 + kDeadband)) {
      // Too much ingress: fill more conservatively.
      SetAlphaF2r(alpha_ * kStep);
      ++adjustments_;
      adjustments_total_.Increment();
    } else if (ingress_fraction < target * (1.0 - kDeadband)) {
      // Spare ingress budget: fill more eagerly.
      SetAlphaF2r(alpha_ / kStep);
      ++adjustments_;
      adjustments_total_.Increment();
    }
  }
  window_start_ = now;
  window_served_bytes_ = 0;
  window_filled_bytes_ = 0;
  window_requests_ = 0;
}

void AdaptiveAlphaCache::OnAttachMetrics(obs::MetricsRegistry& registry,
                                         const std::string& prefix) {
  alpha_gauge_ = registry.GetGauge(prefix + "alpha_f2r");
  adjustments_total_ = registry.GetCounter(prefix + "alpha_adjustments_total");
  inner_->AttachMetrics(registry);
}

void AdaptiveAlphaCache::OnOutcomeRecorded() {
  alpha_gauge_.Set(alpha_);
}

RequestOutcome AdaptiveAlphaCache::HandleRequestImpl(const trace::Request& request) {
  MaybeAdjust(request.arrival_time);
  RequestOutcome outcome = inner_->HandleRequest(request);
  ++window_requests_;
  if (outcome.decision == Decision::kServe) {
    window_served_bytes_ += outcome.requested_bytes;
    window_filled_bytes_ +=
        static_cast<uint64_t>(outcome.filled_chunks + outcome.proactive_filled_chunks) *
        config_.chunk_bytes;
  }
  return outcome;
}

}  // namespace vcdn::core
