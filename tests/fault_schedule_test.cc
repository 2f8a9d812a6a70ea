// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/cache_factory.h"
#include "src/obs/metrics.h"
#include "tests/cache_test_util.h"

namespace vcdn::fault {
namespace {

using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::SmallConfig;

FaultEvent Outage(size_t target, double start, double end) {
  FaultEvent e;
  e.kind = FaultKind::kEdgeOutage;
  e.target = target;
  e.start = start;
  e.end = end;
  return e;
}

TEST(FaultScheduleTest, OriginCostFactor) {
  FaultSchedule schedule;
  FaultEvent inflation;
  inflation.kind = FaultKind::kOriginInflation;
  inflation.start = 0.0;
  inflation.end = 100.0;
  inflation.cost_factor = 3.0;
  schedule.Add(inflation);
  schedule.Add(Outage(0, 10.0, 20.0));  // other kinds never inflate
  ASSERT_TRUE(schedule.Validate().ok());

  EXPECT_DOUBLE_EQ(schedule.OriginCostFactor(50.0), 3.0);
  EXPECT_DOUBLE_EQ(schedule.OriginCostFactor(100.0), 1.0);
}

TEST(FaultScheduleTest, ValidateRejectsBrokenEvents) {
  {
    FaultSchedule s;
    s.Add(Outage(0, 20.0, 10.0));  // end < start
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    s.Add(Outage(0, -1.0, 10.0));  // negative start
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    FaultEvent e;
    e.kind = FaultKind::kDiskDegrade;
    e.start = 0.0;
    e.end = 1.0;
    e.capacity_factor = 0.0;  // must be in (0, 1]
    s.Add(e);
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    FaultEvent e;
    e.kind = FaultKind::kOriginInflation;
    e.start = 0.0;
    e.end = 1.0;
    e.cost_factor = 0.5;  // must be >= 1
    s.Add(e);
    EXPECT_FALSE(s.Validate().ok());
  }
}

TEST(FaultScheduleTest, RandomScheduleIsDeterministicAndValid) {
  RandomFaultOptions options;
  options.duration = 86400.0;
  options.num_edges = 4;
  options.outages_per_edge = 2;
  options.restarts_per_edge = 1;
  options.degrades_per_edge = 1;
  options.parent_outages = 1;

  FaultSchedule a = MakeRandomFaultSchedule(1234, options);
  FaultSchedule b = MakeRandomFaultSchedule(1234, options);
  FaultSchedule c = MakeRandomFaultSchedule(999, options);

  EXPECT_TRUE(a.Validate().ok());
  EXPECT_FALSE(a.empty());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_DOUBLE_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_DOUBLE_EQ(a.events()[i].end, b.events()[i].end);
  }
  // A different seed moves at least one window.
  bool any_difference = c.events().size() != a.events().size();
  for (size_t i = 0; !any_difference && i < a.events().size(); ++i) {
    any_difference = a.events()[i].start != c.events()[i].start;
  }
  EXPECT_TRUE(any_difference);
}

// Fills a cache with distinct single-chunk videos. Offline algorithms get
// the whole trace via Prepare first.
uint64_t FillCache(core::CacheAlgorithm& cache, int num_videos) {
  trace::Trace trace;
  for (int i = 0; i < num_videos; ++i) {
    trace.requests.push_back(ChunkRequest(static_cast<double>(i), static_cast<uint64_t>(i + 1),
                                          0, 0));
  }
  trace.duration = static_cast<double>(num_videos);
  cache.Prepare(trace);
  for (const trace::Request& r : trace.requests) {
    cache.HandleRequest(r);
  }
  return cache.used_chunks();
}

TEST(CacheResizeTest, AllAlgorithmsShrinkGrowAndDrop) {
  const core::CacheKind kinds[] = {core::CacheKind::kXlru,    core::CacheKind::kCafe,
                                   core::CacheKind::kPsychic, core::CacheKind::kFillLru,
                                   core::CacheKind::kFillLfu, core::CacheKind::kBelady};
  for (core::CacheKind kind : kinds) {
    auto cache = core::MakeCache(kind, SmallConfig(16, 1.0));
    const uint64_t used = FillCache(*cache, 40);
    EXPECT_LE(used, 16u) << core::CacheKindName(kind);

    // Shrink: must evict down to the new limit and report the evictions.
    const uint64_t evicted = cache->Resize(4);
    EXPECT_EQ(cache->config().disk_capacity_chunks, 4u) << core::CacheKindName(kind);
    EXPECT_LE(cache->used_chunks(), 4u) << core::CacheKindName(kind);
    EXPECT_EQ(evicted, used - cache->used_chunks()) << core::CacheKindName(kind);

    // Grow: no evictions, limit raised.
    EXPECT_EQ(cache->Resize(32), 0u) << core::CacheKindName(kind);
    EXPECT_EQ(cache->config().disk_capacity_chunks, 32u);

    // Cold restart: disk empties, capacity survives.
    const uint64_t before = cache->used_chunks();
    EXPECT_EQ(cache->DropContents(), before) << core::CacheKindName(kind);
    EXPECT_EQ(cache->used_chunks(), 0u) << core::CacheKindName(kind);
    EXPECT_EQ(cache->config().disk_capacity_chunks, 32u);
  }
}

TEST(FaultDriverTest, AppliesDegradeRestartAndOutage) {
  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(16, 1.0));
  FillCache(*cache, 16);
  ASSERT_EQ(cache->used_chunks(), 16u);

  FaultSchedule schedule;
  FaultEvent degrade;
  degrade.kind = FaultKind::kDiskDegrade;
  degrade.target = 0;
  degrade.start = 10.0;
  degrade.end = 20.0;
  degrade.capacity_factor = 0.5;
  schedule.Add(degrade);
  FaultEvent restart;
  restart.kind = FaultKind::kColdRestart;
  restart.target = 0;
  restart.start = 30.0;
  restart.end = 30.0;
  schedule.Add(restart);
  schedule.Add(Outage(0, 40.0, 50.0));
  ASSERT_TRUE(schedule.Validate().ok());

  obs::MetricsRegistry registry;
  FaultDriver driver(schedule, /*target=*/0, cache.get(), &registry);

  driver.Advance(5.0);
  EXPECT_EQ(cache->config().disk_capacity_chunks, 16u);

  driver.Advance(10.0);  // degrade starts: 16 -> 8
  EXPECT_EQ(cache->config().disk_capacity_chunks, 8u);
  EXPECT_LE(cache->used_chunks(), 8u);

  driver.Advance(20.0);  // window closes: back to 16
  EXPECT_EQ(cache->config().disk_capacity_chunks, 16u);

  // Refill, then the cold restart drops everything.
  FillCache(*cache, 16);
  driver.Advance(30.0);
  EXPECT_EQ(cache->used_chunks(), 0u);
  EXPECT_EQ(registry.GetCounter("fault.cold_restarts_total").value(), 1u);
  EXPECT_EQ(registry.GetCounter("fault.dropped_chunks_total").value(), 16u);
  EXPECT_GE(registry.GetCounter("fault.resize_events_total").value(), 2u);

  EXPECT_FALSE(driver.InOutage(39.0));
  EXPECT_TRUE(driver.InOutage(40.0));
  EXPECT_TRUE(driver.InOutage(49.0));
  EXPECT_FALSE(driver.InOutage(50.0));

  core::RequestOutcome outcome;
  outcome.decision = core::Decision::kUnavailable;
  outcome.requested_bytes = 2048;
  outcome.requested_chunks = 2;
  driver.RecordUnavailable(outcome);
  EXPECT_EQ(registry.GetCounter("fault.unavailable_requests_total").value(), 1u);
  EXPECT_EQ(registry.GetCounter("fault.unavailable_bytes_total").value(), 2048u);
}

TEST(FaultDriverTest, OverlappingDegradesRestoreExactly) {
  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(100, 1.0));
  FaultSchedule schedule;
  for (double factor : {0.5, 0.4}) {
    FaultEvent e;
    e.kind = FaultKind::kDiskDegrade;
    e.target = 0;
    e.start = factor == 0.5 ? 10.0 : 15.0;
    e.end = factor == 0.5 ? 30.0 : 20.0;
    e.capacity_factor = factor;
    schedule.Add(e);
  }
  ASSERT_TRUE(schedule.Validate().ok());
  FaultDriver driver(schedule, 0, cache.get());

  driver.Advance(12.0);
  EXPECT_EQ(cache->config().disk_capacity_chunks, 50u);
  driver.Advance(16.0);  // both active: 100 * 0.5 * 0.4
  EXPECT_EQ(cache->config().disk_capacity_chunks, 20u);
  driver.Advance(25.0);  // inner window closed
  EXPECT_EQ(cache->config().disk_capacity_chunks, 50u);
  driver.Advance(35.0);  // all restored, exactly
  EXPECT_EQ(cache->config().disk_capacity_chunks, 100u);
}

TEST(FaultDriverTest, TargetIsolation) {
  // A driver for edge 1 ignores edge 0's windows and the parent's.
  FaultSchedule schedule;
  schedule.Add(Outage(0, 0.0, 100.0));
  FaultEvent parent;
  parent.kind = FaultKind::kParentOutage;
  parent.start = 0.0;
  parent.end = 100.0;
  schedule.Add(parent);
  ASSERT_TRUE(schedule.Validate().ok());

  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(8, 1.0));
  FaultDriver edge1(schedule, 1, cache.get());
  EXPECT_FALSE(edge1.InOutage(50.0));

  auto parent_cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(8, 1.0));
  FaultDriver parent_driver(schedule, kParentTarget, parent_cache.get());
  EXPECT_TRUE(parent_driver.InOutage(50.0));
}

TEST(FaultDriverTest, OutageWindowsAreHalfOpen) {
  FaultSchedule schedule;
  schedule.Add(Outage(0, 10.0, 20.0));
  FaultEvent parent;
  parent.kind = FaultKind::kParentOutage;
  parent.start = 30.0;
  parent.end = 35.0;
  schedule.Add(parent);
  ASSERT_TRUE(schedule.Validate().ok());
  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(8, 1.0));

  // Active at start, inactive at end.
  FaultDriver edge0(schedule, 0, cache.get());
  EXPECT_FALSE(edge0.InOutage(9.999));
  EXPECT_TRUE(edge0.InOutage(10.0));
  EXPECT_TRUE(edge0.InOutage(19.999));
  EXPECT_FALSE(edge0.InOutage(20.0));
  EXPECT_FALSE(edge0.InOutage(30.0));  // the parent's window is not edge 0's

  FaultDriver edge1(schedule, 1, cache.get());
  EXPECT_FALSE(edge1.InOutage(15.0));  // other edge unaffected

  FaultDriver parent_driver(schedule, kParentTarget, cache.get());
  EXPECT_FALSE(parent_driver.InOutage(15.0));  // edge 0's window is not the parent's
  EXPECT_TRUE(parent_driver.InOutage(30.0));
  EXPECT_FALSE(parent_driver.InOutage(35.0));
}

TEST(FaultDriverTest, DegradeAppliesToItsTargetOnly) {
  FaultSchedule schedule;
  FaultEvent degrade;
  degrade.kind = FaultKind::kDiskDegrade;
  degrade.target = 1;
  degrade.start = 5.0;
  degrade.end = 15.0;
  degrade.capacity_factor = 0.25;
  schedule.Add(degrade);
  ASSERT_TRUE(schedule.Validate().ok());

  auto cache0 = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(16, 1.0));
  auto cache1 = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(16, 1.0));
  FaultDriver driver0(schedule, 0, cache0.get());
  FaultDriver driver1(schedule, 1, cache1.get());
  driver0.Advance(10.0);
  driver1.Advance(10.0);
  EXPECT_EQ(cache0->config().disk_capacity_chunks, 16u);
  EXPECT_EQ(cache1->config().disk_capacity_chunks, 4u);
  driver1.Advance(15.0);  // the window closes at its end
  EXPECT_EQ(cache1->config().disk_capacity_chunks, 16u);
}

}  // namespace
}  // namespace vcdn::fault
