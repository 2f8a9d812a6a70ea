// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vcdn::obs {
namespace {

TEST(CounterTest, DisabledHandleIsNoOp) {
  Counter counter;
  EXPECT_FALSE(counter.enabled());
  counter.Increment();
  counter.Increment(100);
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, DisabledHandleIsNoOp) {
  Gauge gauge;
  EXPECT_FALSE(gauge.enabled());
  gauge.Set(3.5);
  gauge.Add(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MetricsRegistryTest, CounterFindOrCreateAggregates) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("cache.test.requests_total");
  Counter b = registry.GetCounter("cache.test.requests_total");
  EXPECT_TRUE(a.enabled());
  a.Increment(3);
  b.Increment(4);
  // Same name -> same cell: both handles see the aggregate.
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(registry.CounterValue("cache.test.requests_total"), 7u);
  EXPECT_EQ(registry.num_instruments(), 1u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge gauge = registry.GetGauge("sim.test.rate");
  gauge.Set(2.5);
  gauge.Add(0.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("sim.test.rate"), 3.0);
}

TEST(MetricsRegistryTest, UnknownNamesReadZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("nope"), 0u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("nope"), 0.0);
  EXPECT_FALSE(registry.Has("nope"));
}

TEST(MetricsRegistryTest, HandlesSurviveRegistryMove) {
  MetricsRegistry registry;
  Counter counter = registry.GetCounter("moved_total");
  counter.Increment();
  MetricsRegistry moved = std::move(registry);
  counter.Increment();
  EXPECT_EQ(moved.CounterValue("moved_total"), 2u);
}

TEST(MetricsRegistryTest, HdrHistogramKeepsOriginalLayoutOnRelookup) {
  MetricsRegistry registry;
  HdrHistogram first = registry.GetHdrHistogram("h", 1.0, 1024.0, 4);
  // A second lookup with different parameters must not reshape the buckets.
  HdrHistogram second = registry.GetHdrHistogram("h", 2.0, 4096.0, 8);
  first.Observe(9.0);
  second.Observe(9.0);
  auto samples = registry.HdrHistogramSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(samples[0].hi, 1024.0);
  EXPECT_EQ(samples[0].sub_buckets, 4u);
  // Both handles feed the one cell.
  ASSERT_NE(registry.FindHdrHistogram("h"), nullptr);
  EXPECT_EQ(registry.FindHdrHistogram("h")->total_count(), 2u);
}

TEST(MetricsRegistryTest, SamplesAreNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zeta_total");
  registry.GetCounter("alpha_total");
  registry.GetCounter("mid_total");
  auto samples = registry.CounterSamples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].first, "alpha_total");
  EXPECT_EQ(samples[1].first, "mid_total");
  EXPECT_EQ(samples[2].first, "zeta_total");
}

TEST(MetricsRegistryTest, ConcurrentUpdatesThroughSharedRegistry) {
  // The parallel-fleet contract (docs/PARALLELISM.md): one registry shared by
  // many workers loses no updates -- cells are relaxed atomics and
  // registration is mutex-guarded, so Get* may also race.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      Counter counter = registry.GetCounter("exec.test.shared_total");
      Gauge gauge = registry.GetGauge("exec.test.sum");
      HdrHistogram hist = registry.GetHdrHistogram("exec.test.h", 1.0, 8.0, 4);
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        hist.Observe(static_cast<double>(i % 10));  // underflow, buckets, overflow
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  constexpr uint64_t kTotal = uint64_t{kThreads} * kIncrements;
  EXPECT_EQ(registry.CounterValue("exec.test.shared_total"), kTotal);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("exec.test.sum"), static_cast<double>(kTotal));
  const HdrHistogramCell* hist = registry.FindHdrHistogram("exec.test.h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total_count(), kTotal);
  EXPECT_EQ(hist->underflow(), kTotal / 10);      // 0 < lo
  EXPECT_EQ(hist->overflow(), kTotal / 10 * 2);  // 8 and 9 >= hi
}

TEST(MetricsRegistryTest, MergeFromReproducesSequentialAggregation) {
  // Merging shard registries in order == recording into one registry in that
  // order: counters/histograms add, gauges keep the last writer.
  MetricsRegistry a;
  a.GetCounter("c_total").Increment(3);
  a.GetGauge("g").Set(1.0);
  a.GetHdrHistogram("h", 1.0, 4.0, 2).Observe(1.0);

  MetricsRegistry b;
  b.GetCounter("c_total").Increment(4);
  b.GetCounter("only_b_total").Increment(1);
  b.GetGauge("g").Set(2.5);
  b.GetHdrHistogram("h", 1.0, 4.0, 2).Observe(3.0);

  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("c_total"), 7u);
  EXPECT_EQ(a.CounterValue("only_b_total"), 1u);
  EXPECT_DOUBLE_EQ(a.GaugeValue("g"), 2.5);
  ASSERT_NE(a.FindHdrHistogram("h"), nullptr);
  EXPECT_EQ(a.FindHdrHistogram("h")->total_count(), 2u);

  MetricsRegistry sequential;
  sequential.GetCounter("c_total").Increment(3);
  sequential.GetCounter("c_total").Increment(4);
  sequential.GetCounter("only_b_total").Increment(1);
  sequential.GetGauge("g").Set(1.0);
  sequential.GetGauge("g").Set(2.5);
  sequential.GetHdrHistogram("h", 1.0, 4.0, 2).Observe(1.0);
  sequential.GetHdrHistogram("h", 1.0, 4.0, 2).Observe(3.0);
  std::ostringstream merged_json, sequential_json;
  a.WriteJson(merged_json);
  sequential.WriteJson(sequential_json);
  EXPECT_EQ(merged_json.str(), sequential_json.str());
}

TEST(MetricsRegistryTest, MergeFromFoldsHdrHistograms) {
  MetricsRegistry a;
  a.GetHdrHistogram("latency", 1.0, 1024.0, 4).Observe(2.0);
  MetricsRegistry b;
  b.GetHdrHistogram("latency", 1.0, 1024.0, 4).Observe(2.0);
  b.GetHdrHistogram("latency", 1.0, 1024.0, 4).Observe(500.0);
  b.GetHdrHistogram("only_b", 1.0, 1024.0, 4).Observe(1.0);

  a.MergeFrom(b);
  auto samples = a.HdrHistogramSamples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "latency");
  uint64_t total = samples[0].underflow + samples[0].overflow;
  for (uint64_t count : samples[0].counts) {
    total += count;
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(samples[1].name, "only_b");

  const HdrHistogramCell* cell = a.FindHdrHistogram("latency");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->total_count(), 3u);
  EXPECT_EQ(a.FindHdrHistogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, WriteJsonIsDeterministic) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("b_total").Increment(2);
    registry.GetCounter("a_total").Increment(1);
    registry.GetGauge("g").Set(1.5);
    registry.GetHdrHistogram("h", 1.0, 4.0, 2).Observe(1.0);
    std::ostringstream out;
    registry.WriteJson(out);
    return out.str();
  };
  std::string first = build();
  EXPECT_EQ(first, build());
  // Counters appear name-sorted regardless of creation order.
  EXPECT_LT(first.find("\"a_total\""), first.find("\"b_total\""));
  EXPECT_NE(first.find("\"counters\""), std::string::npos);
  EXPECT_NE(first.find("\"gauges\""), std::string::npos);
  EXPECT_NE(first.find("\"hdr_histograms\""), std::string::npos);
}

}  // namespace
}  // namespace vcdn::obs
