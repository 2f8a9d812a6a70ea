// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Streaming mean / min / max / variance, for the benches' summaries.

#ifndef VCDN_SRC_UTIL_STATS_H_
#define VCDN_SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>

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

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_STATS_H_
