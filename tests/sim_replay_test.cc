// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/replay.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/baseline_caches.h"
#include "src/core/cafe_cache.h"
#include "src/core/xlru_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_event.h"
#include "tests/cache_test_util.h"

namespace vcdn::sim {
namespace {

using ::vcdn::testing::ChunkReq;
using ::vcdn::testing::MakeTrace;
using ::vcdn::testing::SmallConfig;

TEST(ReplayTotalsTest, AccumulatesServeAndRedirect) {
  ReplayTotals totals;
  core::RequestOutcome serve;
  serve.decision = core::Decision::kServe;
  serve.requested_bytes = 4096;
  serve.requested_chunks = 4;
  serve.filled_chunks = 2;
  serve.hit_chunks = 2;
  totals.Accumulate(serve, 1024);
  core::RequestOutcome redirect;
  redirect.decision = core::Decision::kRedirect;
  redirect.requested_bytes = 1000;
  totals.Accumulate(redirect, 1024);

  EXPECT_EQ(totals.requests, 2u);
  EXPECT_EQ(totals.served_requests, 1u);
  EXPECT_EQ(totals.redirected_requests, 1u);
  EXPECT_EQ(totals.requested_bytes, 5096u);
  EXPECT_EQ(totals.served_bytes, 4096u);
  EXPECT_EQ(totals.filled_bytes, 2048u);
  EXPECT_EQ(totals.redirected_bytes, 1000u);
}

TEST(ReplayTotalsTest, MetricsMatchDefinitions) {
  ReplayTotals totals;
  totals.requested_bytes = 10000;
  totals.served_bytes = 8000;
  totals.filled_bytes = 2000;
  totals.redirected_bytes = 2000;
  core::CostModel cost(1.0);
  // Efficiency = 1 - 0.2*1 - 0.2*1 = 0.6.
  EXPECT_NEAR(totals.Efficiency(cost), 0.6, 1e-12);
  EXPECT_NEAR(totals.IngressFraction(), 0.25, 1e-12);
  EXPECT_NEAR(totals.RedirectFraction(), 0.2, 1e-12);
}

TEST(ReplayTest, FillLruReplayAccounting) {
  // Two requests for the same 2 chunks: first fills, second hits.
  trace::Trace trace = MakeTrace({{1.0, 1, 0, 1}, {2.0, 1, 0, 1}});
  trace.duration = 4.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  ReplayResult result = Replay(cache, trace, options);
  EXPECT_EQ(result.totals.requests, 2u);
  EXPECT_EQ(result.totals.served_requests, 2u);
  EXPECT_EQ(result.totals.filled_bytes, 2048u);
  // Requested = 2 * 2 chunks * 1024.
  EXPECT_EQ(result.totals.requested_bytes, 4096u);
  // Efficiency: 1 - 2048/4096 = 0.5 at alpha=1.
  EXPECT_NEAR(result.efficiency, 0.5, 1e-12);
  EXPECT_EQ(result.cache_name, "FillLRU");
}

TEST(ReplayTest, SteadyStateWindowExcludesWarmup) {
  // 10 identical requests at t = 0..9; measurement starts at half.
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back({static_cast<double>(i), 1, 0, 0});
  }
  trace::Trace trace = MakeTrace(reqs);
  trace.duration = 10.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  ReplayOptions options;
  options.measurement_start_fraction = 0.5;
  ReplayResult result = Replay(cache, trace, options);
  // The single fill happened at t=0 (warmup); steady window sees pure hits.
  EXPECT_EQ(result.steady.requests, 5u);
  EXPECT_EQ(result.steady.filled_bytes, 0u);
  EXPECT_NEAR(result.efficiency, 1.0, 1e-12);
  EXPECT_LT(result.totals.Efficiency(cache.cost_model()), 1.0);
}

TEST(ReplayTest, SeriesBucketsSplitByHour) {
  trace::Trace trace = MakeTrace({{10.0, 1, 0, 0}, {3700.0, 1, 0, 0}, {3800.0, 2, 0, 0}});
  trace.duration = 7200.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  ReplayResult result = Replay(cache, trace);
  ASSERT_GE(result.series.size(), 2u);
  EXPECT_EQ(result.series[0].requested_bytes, 1024u);
  EXPECT_EQ(result.series[1].requested_bytes, 2048u);
  EXPECT_DOUBLE_EQ(result.series[1].bucket_start, 3600.0);
}

TEST(ReplayTest, XlruEndToEndOnSyntheticPattern) {
  // Mixed popular/unpopular pattern; checks invariant: served + redirected
  // bytes == requested bytes.
  std::vector<ChunkReq> reqs;
  double t = 0.0;
  for (int round = 0; round < 100; ++round) {
    t += 1.0;
    reqs.push_back({t, 1, 0, 3});
    if (round % 10 == 0) {
      reqs.push_back({t + 0.5, static_cast<trace::VideoId>(100 + round), 0, 3});
    }
  }
  trace::Trace trace = MakeTrace(reqs);
  core::XlruCache cache(SmallConfig(16, 2.0));
  ReplayResult result = Replay(cache, trace);
  EXPECT_EQ(result.totals.served_bytes + result.totals.redirected_bytes,
            result.totals.requested_bytes);
  EXPECT_GT(result.efficiency, 0.0);
  EXPECT_EQ(result.alpha_f2r, 2.0);
}

// The sim.replay.requests_total delta of one series window.
uint64_t RequestsIn(const obs::SeriesWindow& window) {
  for (const auto& [name, delta] : window.counters) {
    if (name == "sim.replay.requests_total") {
      return delta;
    }
  }
  return 0;
}

TEST(ReplaySeriesTest, OneWindowPerBucketPlusFinal) {
  // Buckets of 10s; requests land in buckets 0, 0, 2, 5 -> two interior
  // boundary crossings plus the final flush = 3 windows, keyed to the
  // bucket edges.
  trace::Trace trace =
      MakeTrace({{1.0, 1, 0, 0}, {2.0, 1, 0, 0}, {25.0, 1, 0, 0}, {51.0, 2, 0, 0}});
  trace.duration = 60.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series(&registry);
  ReplayOptions options;
  options.bucket_seconds = 10.0;
  options.metrics = &registry;
  options.series = &series;
  Replay(cache, trace, options);

  ASSERT_EQ(series.num_windows(), 3u);
  EXPECT_DOUBLE_EQ(series.window(0).start, 0.0);
  EXPECT_DOUBLE_EQ(series.window(1).start, 20.0);
  EXPECT_DOUBLE_EQ(series.window(2).start, 50.0);
  // The first window closes when t=25 arrives, after 2 requests.
  EXPECT_EQ(RequestsIn(series.window(0)), 2u);
  EXPECT_EQ(RequestsIn(series.window(1)), 1u);
  EXPECT_EQ(RequestsIn(series.window(2)), 1u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("sim.replay.sim_time_seconds"), 51.0);
}

TEST(ReplaySeriesTest, NoWindowForEmptyTrace) {
  trace::Trace trace;
  trace.duration = 0.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series(&registry);
  ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  options.metrics = &registry;
  options.series = &series;
  ReplayResult result = Replay(cache, trace, options);
  EXPECT_EQ(series.num_windows(), 0u);
  EXPECT_EQ(result.totals.requests, 0u);
  EXPECT_EQ(registry.CounterValue("sim.replay.requests_total"), 0u);
  EXPECT_EQ(registry.CounterValue("sim.replay.buckets_flushed_total"), 0u);
}

TEST(ReplayObsTest, RegistryCountersMatchReplayTotals) {
  // Busy mixed workload on a small cache so fills, hits, redirects and
  // evictions all occur; the registry must agree with ReplayTotals exactly.
  std::vector<ChunkReq> reqs;
  double t = 0.0;
  for (int round = 0; round < 200; ++round) {
    t += 1.0;
    reqs.push_back({t, static_cast<trace::VideoId>(round % 7), 0, 3});
    reqs.push_back({t + 0.25, static_cast<trace::VideoId>(50 + round), 0, 5});
  }
  trace::Trace trace = MakeTrace(reqs);
  core::AlwaysFillLruCache cache(SmallConfig(24, 2.0));
  obs::MetricsRegistry registry;
  ReplayOptions options;
  options.metrics = &registry;
  options.bucket_seconds = 20.0;
  ReplayResult result = Replay(cache, trace, options);

  const std::string p = "cache.FillLRU.";
  EXPECT_EQ(registry.CounterValue(p + "requests_total"), result.totals.requests);
  EXPECT_EQ(registry.CounterValue(p + "served_total"), result.totals.served_requests);
  EXPECT_EQ(registry.CounterValue(p + "redirected_total"), result.totals.redirected_requests);
  EXPECT_EQ(registry.CounterValue(p + "filled_chunks_total"), result.totals.filled_chunks);
  EXPECT_EQ(registry.CounterValue(p + "proactive_filled_chunks_total"),
            result.totals.proactive_filled_chunks);
  EXPECT_EQ(registry.CounterValue(p + "evicted_chunks_total"), result.totals.evicted_chunks);
  EXPECT_GT(result.totals.evicted_chunks, 0u);
  EXPECT_EQ(registry.CounterValue("sim.replay.requests_total"), result.totals.requests);
  EXPECT_GT(registry.GaugeValue(p + "used_chunks"), 0.0);
}

TEST(ReplayObsTest, TraceSinkRecordsSpans) {
  trace::Trace trace = MakeTrace({{1.0, 1, 0, 1}, {4000.0, 1, 0, 1}});
  trace.duration = 7200.0;
  core::AlwaysFillLruCache cache(SmallConfig(10, 1.0));
  obs::MetricsRegistry registry;
  obs::TraceEventSink sink;
  ReplayOptions options;
  options.metrics = &registry;
  options.trace_sink = &sink;
  Replay(cache, trace, options);

  // The sink holds the two replay spans and nothing else: per-bucket values
  // live in the registry and the series.
  ASSERT_EQ(sink.num_events(), 2u);
  EXPECT_EQ(sink.events()[0].phase, 'X');
  EXPECT_EQ(sink.events()[0].name, "replay.prepare");
  EXPECT_EQ(sink.events()[1].phase, 'X');
  EXPECT_EQ(sink.events()[1].name, "replay.loop");
  // One flush per bucket: the interior boundary plus the final one.
  EXPECT_EQ(registry.CounterValue("sim.replay.buckets_flushed_total"), 2u);
}

}  // namespace
}  // namespace vcdn::sim
