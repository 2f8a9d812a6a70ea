// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Log-bucketed histogram cell (HdrHistogram-style): geometric major buckets
// (one per octave of the value range) subdivided into `sub_buckets` linear
// sub-buckets, so relative error is bounded by 1/sub_buckets across the whole
// dynamic range. This is the right shape for latency- and size-like
// distributions whose interesting quantiles span orders of magnitude. It is
// the registry's one histogram type (src/obs/metrics.h).
//
// Counts are relaxed atomics, any number of threads may Add through handles
// into one cell, MergeFrom folds a same-layout cell in, and merging shard
// cells in any order reproduces the single-stream fill exactly (counts are
// sums). Values below `lo` clamp into the underflow count and quantile-read
// as `lo`; values at or above `hi` clamp into the overflow count and
// quantile-read as `hi` -- recorded mass is never silently dropped.

#ifndef VCDN_SRC_OBS_HDR_HISTOGRAM_H_
#define VCDN_SRC_OBS_HDR_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace vcdn::obs {

class HdrHistogramCell {
 public:
  // Covers [lo, hi) with ceil(log2(hi/lo)) octaves of `sub_buckets` linear
  // sub-buckets each. lo must be > 0 (log bucketing has no zero edge).
  HdrHistogramCell(double lo, double hi, size_t sub_buckets);

  void Add(double value) { Bump(IndexOf(value), 1); }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  size_t sub_buckets() const { return sub_; }
  size_t num_buckets() const { return counts_.size(); }

  // Lower edge of bucket i: lo * 2^(i / sub) * (1 + (i % sub) / sub).
  // bucket_lo(num_buckets()) is the top edge of the last bucket.
  double bucket_lo(size_t i) const;

  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t underflow() const { return underflow_.load(std::memory_order_relaxed); }
  uint64_t overflow() const { return overflow_.load(std::memory_order_relaxed); }
  uint64_t total_count() const;

  // Quantile estimate over the recorded distribution: the midpoint of the
  // bucket holding the rank-q observation. Monotone in q; underflow mass
  // reads as lo, overflow mass as hi (the clamping contract above). Returns
  // 0 for an empty cell.
  double Quantile(double q) const;

  // Quantile over an external count vector with this cell's layout -- the
  // windowed-series case, where per-window deltas of the live counts are
  // taken and quantiles computed per window (obs::TimeSeriesRecorder).
  double QuantileFromCounts(double q, const std::vector<uint64_t>& counts, uint64_t underflow,
                            uint64_t overflow) const;

  // Adds another cell's counts into this one. Layouts must match.
  void MergeFrom(const HdrHistogramCell& other);

 private:
  static constexpr size_t kUnderflow = static_cast<size_t>(-1);
  static constexpr size_t kOverflow = static_cast<size_t>(-2);

  size_t IndexOf(double value) const;
  void Bump(size_t index, uint64_t delta);

  double lo_;
  double hi_;
  size_t sub_;
  size_t octaves_;
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> underflow_{0};
  std::atomic<uint64_t> overflow_{0};
};

// Cheap handle mirroring obs::Histogram: default-constructed is a no-op.
class HdrHistogram {
 public:
  HdrHistogram() = default;

  void Observe(double value) {
    if (impl_ != nullptr) {
      impl_->Add(value);
    }
  }
  bool enabled() const { return impl_ != nullptr; }
  // Null when disabled.
  const HdrHistogramCell* data() const { return impl_; }

 private:
  friend class MetricsRegistry;
  explicit HdrHistogram(HdrHistogramCell* impl) : impl_(impl) {}
  HdrHistogramCell* impl_ = nullptr;
};

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_HDR_HISTOGRAM_H_
