// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/util/rng.h"

namespace vcdn::util {
namespace {

TEST(ExponentialTest, MeanMatches) {
  Pcg32 rng(1);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleExponential(rng, 5.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(NormalTest, MeanAndVariance) {
  Pcg32 rng(2);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleStandardNormal(rng);
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sq / kSamples, 1.0, 0.02);
}

TEST(LogNormalTest, MedianIsExpMu) {
  Pcg32 rng(3);
  std::vector<double> samples;
  constexpr int kSamples = 50001;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    double v = SampleLogNormal(rng, 2.0, 0.5);
    ASSERT_GT(v, 0.0);
    samples.push_back(v);
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2, samples.end());
  EXPECT_NEAR(samples[kSamples / 2], std::exp(2.0), 0.2);
}

TEST(ParetoTest, SupportAndMedian) {
  Pcg32 rng(4);
  std::vector<double> samples;
  constexpr int kSamples = 50001;
  for (int i = 0; i < kSamples; ++i) {
    double v = SamplePareto(rng, 2.0, 1.5);
    ASSERT_GE(v, 2.0);
    samples.push_back(v);
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2, samples.end());
  // Median of Pareto(x_m, a) = x_m * 2^(1/a).
  EXPECT_NEAR(samples[kSamples / 2], 2.0 * std::pow(2.0, 1.0 / 1.5), 0.1);
}

TEST(AliasTableTest, MatchesWeights) {
  Pcg32 rng(5);
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  constexpr int kSamples = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kSamples; ++i) {
    size_t idx = table.Sample(rng);
    ASSERT_LT(idx, weights.size());
    ++counts[idx];
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples, expected, 0.01);
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Pcg32 rng(6);
  AliasTable table({0.0, 1.0, 0.0, 1.0});
  for (int i = 0; i < 10000; ++i) {
    size_t idx = table.Sample(rng);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(AliasTableTest, SingleEntry) {
  Pcg32 rng(7);
  AliasTable table({3.5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Sample(rng), 0u);
  }
}

TEST(AliasTableTest, HeavyTailedWeights) {
  Pcg32 rng(8);
  std::vector<double> weights(1000, 0.001);
  weights[0] = 1000.0;
  AliasTable table(weights);
  int head = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (table.Sample(rng) == 0) {
      ++head;
    }
  }
  double expected = 1000.0 / (1000.0 + 0.999);
  EXPECT_NEAR(static_cast<double>(head) / kSamples, expected, 0.005);
}

// Samples `count` indices from `table` with a fresh generator seeded `seed`.
std::vector<size_t> Draw(const AliasTable& table, uint64_t seed, int count) {
  Pcg32 rng(seed);
  std::vector<size_t> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(table.Sample(rng));
  }
  return out;
}

std::vector<double> RandomWeights(Pcg32& rng, size_t n) {
  std::vector<double> weights(n);
  for (double& w : weights) {
    w = SamplePareto(rng, 1.0, 1.05);
  }
  if (n > 1) {
    weights[n / 2] = 0.0;  // a column that only its alias can return
  }
  return weights;
}

TEST(AliasTableTest, RebuildMatchesFreshTableWhileShrinkingAndGrowing) {
  // Rebuild reuses the table's storage; whatever a larger distribution left
  // behind must not leak into a smaller one, nor the reverse.
  Pcg32 weight_rng(10);
  AliasTable reused;
  for (size_t n : {1000u, 7u, 1u, 300u, 2500u}) {
    const std::vector<double> weights = RandomWeights(weight_rng, n);
    reused.Rebuild(weights);
    const AliasTable fresh(weights);
    ASSERT_EQ(reused.size(), n);
    EXPECT_EQ(Draw(reused, n, 20000), Draw(fresh, n, 20000)) << "n=" << n;
  }
}

TEST(AliasTableTest, SampleManyMatchesRepeatedSample) {
  Pcg32 weight_rng(11);
  const AliasTable table(RandomWeights(weight_rng, 5000));
  // Counts below, at and across the internal block size.
  for (size_t count : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    Pcg32 many_rng(12);
    Pcg32 one_rng = many_rng;
    std::vector<uint32_t> many(count);
    table.SampleMany(many_rng, many.data(), count);
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(many[i], table.Sample(one_rng)) << "count=" << count << " i=" << i;
    }
    // Both generators consumed the same draws.
    EXPECT_EQ(many_rng.Next(), one_rng.Next()) << "count=" << count;
  }
}

}  // namespace
}  // namespace vcdn::util
