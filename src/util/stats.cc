// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace vcdn::util {

void StatAccumulator::Add(double value) {
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double StatAccumulator::variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double StatAccumulator::stddev() const { return std::sqrt(variance()); }

}  // namespace vcdn::util
