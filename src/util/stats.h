// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Streaming statistics helpers used by the simulator and the benches:
// accumulators and bucketed time series.

#ifndef VCDN_SRC_UTIL_STATS_H_
#define VCDN_SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/check.h"

namespace vcdn::util {

// Streaming mean / min / max / variance (Welford).
class StatAccumulator {
 public:
  void Add(double value);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Population variance / stddev.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Accumulates (time, value-sums) into fixed-width time buckets, e.g. hourly
// ingress bytes over a month. Bucket index = floor((t - origin) / width).
class BucketedSeries {
 public:
  BucketedSeries(double origin, double bucket_width)
      : origin_(origin), bucket_width_(bucket_width) {
    VCDN_CHECK(bucket_width > 0.0);
  }

  void Add(double t, double value);

  size_t num_buckets() const { return sums_.size(); }
  double bucket_start(size_t i) const { return origin_ + static_cast<double>(i) * bucket_width_; }
  double bucket_width() const { return bucket_width_; }
  // Sum of values in bucket i (0 for buckets never touched).
  double sum(size_t i) const { return i < sums_.size() ? sums_[i] : 0.0; }
  const std::vector<double>& sums() const { return sums_; }

 private:
  double origin_;
  double bucket_width_;
  std::vector<double> sums_;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_STATS_H_
