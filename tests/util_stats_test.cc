// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace vcdn::util {
namespace {

TEST(StatAccumulatorTest, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulatorTest, BasicMoments) {
  StatAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
}

TEST(StatAccumulatorTest, SingleValue) {
  StatAccumulator acc;
  acc.Add(3.25);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.25);
  EXPECT_DOUBLE_EQ(acc.min(), 3.25);
  EXPECT_DOUBLE_EQ(acc.max(), 3.25);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

}  // namespace
}  // namespace vcdn::util
