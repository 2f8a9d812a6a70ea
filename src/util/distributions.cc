// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/distributions.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/container/prefetch.h"
#include "src/util/check.h"

namespace vcdn::util {

double SampleStandardNormal(Pcg32& rng) {
  // Box-Muller, cosine branch only so that exactly two uniforms are consumed
  // per call regardless of caller pattern.
  double u1 = 1.0 - rng.NextDouble();
  double u2 = rng.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double SampleLogNormal(Pcg32& rng, double mu, double sigma) {
  VCDN_CHECK(sigma >= 0.0);
  return std::exp(mu + sigma * SampleStandardNormal(rng));
}

double SamplePareto(Pcg32& rng, double x_m, double alpha) {
  VCDN_CHECK(x_m > 0.0);
  VCDN_CHECK(alpha > 0.0);
  double u = 1.0 - rng.NextDouble();
  return x_m / std::pow(u, 1.0 / alpha);
}

// --- AliasTable -------------------------------------------------------------

void AliasTable::Rebuild(const std::vector<double>& weights) {
  VCDN_CHECK(!weights.empty());
  VCDN_CHECK(weights.size() <= std::numeric_limits<uint32_t>::max());
  const size_t n = weights.size();

  double total = 0.0;
  for (double w : weights) {
    VCDN_CHECK(w >= 0.0);
    total += w;
  }
  VCDN_CHECK(total > 0.0);

  // Vose's stable partition into small/large worklists. Each column holds its
  // scaled weight until it leaves the small list, which is exactly the
  // probability it keeps. The small list grows up from the front of
  // worklists_ and the large one down from the back; an index is on at most
  // one list, so they never meet.
  columns_.resize(n);
  worklists_.resize(n);
  size_t small = 0;  // small list: worklists_[0, small), top at small - 1
  size_t large = n;  // large list: worklists_[large, n), top at large
  const double scale = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) {
    columns_[i].probability = weights[i] * scale;
    if (columns_[i].probability < 1.0) {
      worklists_[small++] = static_cast<uint32_t>(i);
    } else {
      worklists_[--large] = static_cast<uint32_t>(i);
    }
  }

  while (small > 0 && large < n) {
    const uint32_t s = worklists_[--small];
    const uint32_t l = worklists_[large++];
    columns_[s].alias = l;
    double& scaled_l = columns_[l].probability;
    scaled_l = (scaled_l + columns_[s].probability) - 1.0;
    if (scaled_l < 1.0) {
      worklists_[small++] = l;
    } else {
      worklists_[--large] = l;
    }
  }
  // Numerical leftovers all get probability 1.
  for (size_t i = large; i < n; ++i) {
    columns_[worklists_[i]] = {1.0, worklists_[i]};
  }
  for (size_t i = 0; i < small; ++i) {
    columns_[worklists_[i]] = {1.0, worklists_[i]};
  }
}

void AliasTable::SampleMany(Pcg32& rng, uint32_t* out, size_t count) const {
  constexpr size_t kBlock = 64;
  const auto n = static_cast<uint32_t>(columns_.size());
  uint32_t column[kBlock];
  double u[kBlock];
  for (size_t begin = 0; begin < count; begin += kBlock) {
    const size_t len = std::min(kBlock, count - begin);
    // Sample() draws the column, then the uniform; neither depends on the
    // table, so a block's draws can all precede its reads.
    for (size_t j = 0; j < len; ++j) {
      column[j] = rng.NextBounded(n);
      u[j] = rng.NextDouble();
      container::PrefetchForRead(&columns_[column[j]]);
    }
    for (size_t j = 0; j < len; ++j) {
      const Column& c = columns_[column[j]];
      out[begin + j] = u[j] < c.probability ? column[j] : c.alias;
    }
  }
}

}  // namespace vcdn::util
