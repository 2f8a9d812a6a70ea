// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/metrics.h"

#include <gtest/gtest.h>

namespace vcdn::sim {
namespace {

core::RequestOutcome Serve(uint64_t bytes, uint32_t chunks, uint32_t filled, uint32_t hits,
                           uint32_t proactive = 0) {
  core::RequestOutcome o;
  o.decision = core::Decision::kServe;
  o.requested_bytes = bytes;
  o.requested_chunks = chunks;
  o.filled_chunks = filled;
  o.hit_chunks = hits;
  o.proactive_filled_chunks = proactive;
  return o;
}

core::RequestOutcome Redirect(uint64_t bytes, uint32_t chunks, uint32_t proactive = 0) {
  core::RequestOutcome o;
  o.decision = core::Decision::kRedirect;
  o.requested_bytes = bytes;
  o.requested_chunks = chunks;
  o.proactive_filled_chunks = proactive;
  return o;
}

TEST(MetricsCollectorTest, SteadyWindowSplitsAtMeasurementStart) {
  MetricsCollector collector(/*chunk_bytes=*/1024, /*measurement_start=*/100.0,
                             /*bucket_seconds=*/50.0);
  collector.Record(10.0, Serve(2048, 2, 2, 0));
  collector.Record(99.9, Redirect(1024, 1));
  collector.Record(100.0, Serve(1024, 1, 0, 1));  // exactly at the boundary: steady
  collector.Record(150.0, Redirect(512, 1));
  EXPECT_EQ(collector.totals().requests, 4u);
  EXPECT_EQ(collector.steady().requests, 2u);
  EXPECT_EQ(collector.steady().served_bytes, 1024u);
  EXPECT_EQ(collector.steady().redirected_bytes, 512u);
  EXPECT_EQ(collector.steady().filled_bytes, 0u);
}

TEST(MetricsCollectorTest, SeriesBucketsAlign) {
  MetricsCollector collector(1024, 0.0, 10.0);
  collector.Record(5.0, Serve(100, 1, 1, 0));
  collector.Record(15.0, Redirect(200, 1));
  collector.Record(25.0, Serve(300, 1, 0, 1));
  core::RequestOutcome down;
  down.decision = core::Decision::kUnavailable;
  down.requested_bytes = 700;
  down.requested_chunks = 1;
  collector.Record(25.0, down);
  auto series = collector.Series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].served_bytes, 100u);
  EXPECT_EQ(series[0].filled_bytes, 1024u);
  EXPECT_EQ(series[1].redirected_bytes, 200u);
  EXPECT_EQ(series[2].served_bytes, 300u);
  EXPECT_EQ(series[2].unavailable_bytes, 700u);
  EXPECT_EQ(series[2].requested_bytes, 1000u);
}

TEST(MetricsCollectorTest, BucketsAreHalfOpenAndGapsAreZero) {
  MetricsCollector collector(1024, 0.0, 10.0);
  collector.Record(0.0, Redirect(1, 1));
  collector.Record(9.999, Redirect(2, 1));  // still bucket 0
  collector.Record(10.0, Redirect(4, 1));   // bucket 1 starts at 10.0
  collector.Record(35.0, Redirect(8, 1));   // bucket 2 is never touched
  const std::vector<SeriesPoint>& series = collector.Series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].requested_bytes, 3u);
  EXPECT_EQ(series[1].requested_bytes, 4u);
  EXPECT_EQ(series[2].requested_bytes, 0u);
  EXPECT_EQ(series[2].redirected_bytes, 0u);
  EXPECT_EQ(series[3].requested_bytes, 8u);
  // Every bucket, touched or not, starts at its index x bucket_seconds.
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].bucket_start, 10.0 * static_cast<double>(i)) << "bucket " << i;
  }
}

TEST(MetricsCollectorDeathTest, NegativeArrivalTimeFails) {
  MetricsCollector collector(1024, 0.0, 10.0);
  EXPECT_DEATH(collector.Record(-1.0, Redirect(1, 1)), "arrival_time >= 0");
}

TEST(MetricsCollectorTest, ProactiveFillsCountOnBothDecisions) {
  MetricsCollector collector(1000, 0.0, 10.0);
  collector.Record(1.0, Serve(500, 1, 1, 0, /*proactive=*/2));
  collector.Record(2.0, Redirect(500, 1, /*proactive=*/3));
  const ReplayTotals& t = collector.totals();
  // 1 demand fill + 5 proactive fills, all ingress.
  EXPECT_EQ(t.filled_chunks, 6u);
  EXPECT_EQ(t.proactive_filled_chunks, 5u);
  EXPECT_EQ(t.filled_bytes, 6000u);
  // The series sees the proactive bytes too.
  auto series = collector.Series();
  EXPECT_EQ(series[0].filled_bytes, 6000u);
}

TEST(ReplayTotalsTest, ChunkEfficiencyUsesChunkUnits) {
  ReplayTotals t;
  t.requested_chunks = 100;
  t.filled_chunks = 20;
  t.redirected_chunks = 30;
  core::CostModel cost(1.0);
  // 1 - 0.2 - 0.3 = 0.5 in chunk units.
  EXPECT_NEAR(t.ChunkEfficiency(cost), 0.5, 1e-12);
  // Chunk and byte efficiencies are independent: with no byte counters set,
  // the byte metric is 0 while the chunk metric is meaningful.
  EXPECT_EQ(t.requested_bytes, 0u);
  EXPECT_EQ(t.Efficiency(cost), 0.0);
  // At alpha = 2 fills weigh 4/3 and redirects 2/3 in chunk units too.
  EXPECT_NEAR(t.ChunkEfficiency(core::CostModel(2.0)),
              1.0 - 0.2 * (4.0 / 3.0) - 0.3 * (2.0 / 3.0), 1e-12);
}

TEST(ReplayTotalsTest, EmptyTotalsAreZeroNotNan) {
  ReplayTotals t;
  core::CostModel cost(2.0);
  EXPECT_EQ(t.Efficiency(cost), 0.0);
  EXPECT_EQ(t.ChunkEfficiency(cost), 0.0);
  EXPECT_EQ(t.IngressFraction(), 0.0);
  EXPECT_EQ(t.RedirectFraction(), 0.0);
}

TEST(ReplayTotalsTest, IngressVisibleWithFillsButNoEgress) {
  // Proactive fills on an all-redirect run: served_bytes == 0 but ingress
  // happened. The fraction must stay finite and non-zero (normalized by
  // requested bytes when there is no egress to normalize by).
  ReplayTotals t;
  t.requested_bytes = 4000;
  t.redirected_bytes = 4000;
  t.filled_bytes = 2000;
  EXPECT_DOUBLE_EQ(t.IngressFraction(), 0.5);
  EXPECT_DOUBLE_EQ(t.RedirectFraction(), 1.0);

  // Fills with neither served nor requested bytes still read 0, not NaN.
  ReplayTotals orphan;
  orphan.filled_bytes = 1000;
  EXPECT_DOUBLE_EQ(orphan.IngressFraction(), 0.0);
}

TEST(MetricsCollectorTest, EmptyTraceProducesNoBucketsAndZeroTotals) {
  MetricsCollector collector(1024, /*measurement_start=*/0.0, /*bucket_seconds=*/10.0);
  EXPECT_EQ(collector.totals().requests, 0u);
  EXPECT_EQ(collector.steady().requests, 0u);
  EXPECT_TRUE(collector.Series().empty());
  EXPECT_EQ(collector.totals().IngressFraction(), 0.0);
  EXPECT_EQ(collector.totals().RedirectFraction(), 0.0);
}

TEST(MetricsCollectorTest, WarmupOnlyTraceKeepsSteadyTotalsZero) {
  // Every request arrives before the measurement window opens.
  MetricsCollector collector(1024, /*measurement_start=*/100.0, /*bucket_seconds=*/10.0);
  collector.Record(1.0, Serve(2048, 2, 2, 0));
  collector.Record(50.0, Redirect(1024, 1));
  EXPECT_EQ(collector.totals().requests, 2u);
  EXPECT_EQ(collector.steady().requests, 0u);
  EXPECT_EQ(collector.steady().requested_bytes, 0u);
  EXPECT_EQ(collector.steady().IngressFraction(), 0.0);
  EXPECT_EQ(collector.steady().RedirectFraction(), 0.0);
  // Series covers only the buckets actually touched (t=1 and t=50), not the
  // empty measurement window after them.
  auto series = collector.Series();
  ASSERT_FALSE(series.empty());
  EXPECT_LE(series.back().bucket_start, 50.0);
  uint64_t series_requested = 0;
  for (const auto& p : series) {
    series_requested += p.requested_bytes;
  }
  EXPECT_EQ(series_requested, collector.totals().requested_bytes);
}

TEST(ReplayTotalsTest, AlphaChangesEfficiencyOfSameTraffic) {
  ReplayTotals t;
  t.requested_bytes = 1000;
  t.filled_bytes = 200;
  t.redirected_bytes = 300;
  // At alpha = 1 both cost the same; at alpha = 4, fills cost 1.6/redirects 0.4.
  double neutral = t.Efficiency(core::CostModel(1.0));
  double constrained = t.Efficiency(core::CostModel(4.0));
  EXPECT_NEAR(neutral, 1.0 - 0.2 - 0.3, 1e-12);
  EXPECT_NEAR(constrained, 1.0 - 0.2 * 1.6 - 0.3 * 0.4, 1e-12);
  // This mix is redirect-heavy (0.3 vs 0.2), so the redirect-friendly cost
  // model scores it higher.
  EXPECT_GT(constrained, neutral);
}

}  // namespace
}  // namespace vcdn::sim
