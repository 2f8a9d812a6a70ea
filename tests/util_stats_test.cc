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

TEST(BucketedSeriesTest, AccumulatesIntoRightBuckets) {
  BucketedSeries series(0.0, 10.0);
  series.Add(0.0, 1.0);
  series.Add(9.999, 2.0);
  series.Add(10.0, 4.0);
  series.Add(35.0, 8.0);
  ASSERT_EQ(series.num_buckets(), 4u);
  EXPECT_DOUBLE_EQ(series.sum(0), 3.0);
  EXPECT_DOUBLE_EQ(series.sum(1), 4.0);
  EXPECT_DOUBLE_EQ(series.sum(2), 0.0);
  EXPECT_DOUBLE_EQ(series.sum(3), 8.0);
  EXPECT_DOUBLE_EQ(series.bucket_start(3), 30.0);
  // Out-of-range queries are zero, not errors.
  EXPECT_DOUBLE_EQ(series.sum(10), 0.0);
}

TEST(BucketedSeriesTest, NonZeroOrigin) {
  BucketedSeries series(100.0, 5.0);
  series.Add(101.0, 1.0);
  series.Add(109.0, 2.0);
  ASSERT_EQ(series.num_buckets(), 2u);
  EXPECT_DOUBLE_EQ(series.sum(0), 1.0);
  EXPECT_DOUBLE_EQ(series.sum(1), 2.0);
}

}  // namespace
}  // namespace vcdn::util
