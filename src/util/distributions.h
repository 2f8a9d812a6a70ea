// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Portable random distributions built on Pcg32. All are deterministic for a
// given generator state (the standard library's equivalents are not
// implementation-stable, which would break trace reproducibility).

#ifndef VCDN_SRC_UTIL_DISTRIBUTIONS_H_
#define VCDN_SRC_UTIL_DISTRIBUTIONS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace vcdn::util {

// Exponential variate with the given mean (mean > 0). Inline: the workload
// generator draws one per arrival candidate and one per request.
inline double SampleExponential(Pcg32& rng, double mean) {
  VCDN_CHECK(mean > 0.0);
  // 1 - u in (0, 1] avoids log(0).
  double u = 1.0 - rng.NextDouble();
  return -mean * std::log(u);
}

// Standard normal variate (Box-Muller; one value per call, no caching so the
// draw count is deterministic).
double SampleStandardNormal(Pcg32& rng);

// Log-normal variate parameterized by the underlying normal's mu / sigma.
double SampleLogNormal(Pcg32& rng, double mu, double sigma);

// Pareto variate with scale x_m > 0 and shape alpha > 0: values >= x_m.
double SamplePareto(Pcg32& rng, double x_m, double alpha);

// Walker alias table for O(1) sampling from an arbitrary discrete
// distribution. Weights need not be normalized; they must be non-negative and
// have a positive sum. Rebuild() reuses the table's storage, so a table
// rebuilt every popularity window stops allocating once it has held its
// largest distribution.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(const std::vector<double>& weights) { Rebuild(weights); }

  // Replaces the distribution (Vose's method).
  void Rebuild(const std::vector<double>& weights);

  // Returns an index in [0, size()).
  size_t Sample(Pcg32& rng) const {
    const auto column = rng.NextBounded(static_cast<uint32_t>(columns_.size()));
    const Column& c = columns_[column];
    return rng.NextDouble() < c.probability ? column : c.alias;
  }

  // Writes `count` indices to `out`: the values `count` Sample() calls would
  // return, from the same draws in the same order. Each block's columns are
  // drawn and prefetched before any is read, so the table misses overlap.
  void SampleMany(Pcg32& rng, uint32_t* out, size_t count) const;

  size_t size() const { return columns_.size(); }

 private:
  // One sample reads one column: its probability and its alias share a line.
  struct Column {
    double probability;
    uint32_t alias;
  };

  std::vector<Column> columns_;
  // Vose's small and large worklists, sharing one buffer; used by Rebuild.
  std::vector<uint32_t> worklists_;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_DISTRIBUTIONS_H_
