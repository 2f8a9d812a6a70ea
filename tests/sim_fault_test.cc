// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fault injection through the sim layer: outage accounting in Replay,
// tiered failover in RunHierarchy, and the determinism contract (identical
// results and FleetDigest for any thread count) under an active schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/sim/hierarchy.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "tests/cache_test_util.h"

namespace vcdn::sim {
namespace {

using ::vcdn::testing::ChunkReq;
using ::vcdn::testing::MakeTrace;
using ::vcdn::testing::SmallConfig;

// One request per second over [0, seconds); `spread` distinct videos.
trace::Trace UniformTrace(int seconds, int spread) {
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < seconds; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + i % spread), 0, 1});
  }
  return MakeTrace(reqs);
}

fault::FaultEvent EdgeOutage(size_t target, double start, double end) {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kEdgeOutage;
  e.target = target;
  e.start = start;
  e.end = end;
  return e;
}

TEST(ReplayFaultTest, OutageWindowBecomesUnavailableTraffic) {
  trace::Trace trace = UniformTrace(100, 5);
  fault::FaultSchedule schedule;
  schedule.Add(EdgeOutage(0, 25.0, 50.0));
  ASSERT_TRUE(schedule.Validate().ok());

  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(32, 1.0));
  obs::MetricsRegistry registry;
  ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  options.faults = &schedule;
  options.fault_target = 0;
  options.metrics = &registry;
  ReplayResult result = Replay(*cache, trace, options);

  // Requests at t in [25, 50) -- exactly 25 of them -- never reach the cache.
  EXPECT_EQ(result.totals.unavailable_requests, 25u);
  EXPECT_EQ(registry.GetCounter("fault.unavailable_requests_total").value(), 25u);
  EXPECT_GT(result.totals.unavailable_bytes, 0u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0 - 25.0 / 100.0);
  // Conservation: every request is served, redirected, or unavailable.
  EXPECT_EQ(result.totals.served_requests + result.totals.redirected_requests +
                result.totals.unavailable_requests,
            result.totals.requests);
  EXPECT_EQ(result.totals.served_bytes + result.totals.redirected_bytes +
                result.totals.unavailable_bytes,
            result.totals.requested_bytes);
}

TEST(ReplayFaultTest, TargetMismatchIsNoFault) {
  trace::Trace trace = UniformTrace(100, 5);
  fault::FaultSchedule schedule;
  schedule.Add(EdgeOutage(3, 0.0, 100.0));  // some other edge
  ASSERT_TRUE(schedule.Validate().ok());

  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(32, 1.0));
  ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  options.faults = &schedule;
  options.fault_target = 0;
  ReplayResult result = Replay(*cache, trace, options);
  EXPECT_EQ(result.totals.unavailable_requests, 0u);
  EXPECT_DOUBLE_EQ(result.availability, 1.0);
}

TEST(ReplayFaultTest, ColdRestartAndDegradeAreApplied) {
  trace::Trace trace = UniformTrace(200, 8);
  fault::FaultSchedule schedule;
  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDiskDegrade;
  degrade.target = 0;
  degrade.start = 50.0;
  degrade.end = 100.0;
  degrade.capacity_factor = 0.25;
  schedule.Add(degrade);
  fault::FaultEvent restart;
  restart.kind = fault::FaultKind::kColdRestart;
  restart.target = 0;
  restart.start = 150.0;
  restart.end = 150.0;
  schedule.Add(restart);
  ASSERT_TRUE(schedule.Validate().ok());

  auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(16, 1.0));
  obs::MetricsRegistry registry;
  ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  options.faults = &schedule;
  options.metrics = &registry;
  ReplayResult result = Replay(*cache, trace, options);

  EXPECT_EQ(registry.GetCounter("fault.cold_restarts_total").value(), 1u);
  EXPECT_GT(registry.GetCounter("fault.dropped_chunks_total").value(), 0u);
  EXPECT_GE(registry.GetCounter("fault.resize_events_total").value(), 2u);  // degrade + restore
  // The degraded window plus the restart force extra fills versus a clean run.
  auto clean_cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(16, 1.0));
  ReplayOptions clean;
  clean.measurement_start_fraction = 0.0;
  ReplayResult reference = Replay(*clean_cache, trace, clean);
  EXPECT_GT(result.totals.filled_bytes, reference.totals.filled_bytes);
}

HierarchyConfig FaultHierarchyConfig() {
  HierarchyConfig config;
  config.edge_kind = core::CacheKind::kCafe;
  config.edge_config = SmallConfig(16, 2.0);
  config.parent_kind = core::CacheKind::kCafe;
  config.parent_config = SmallConfig(64, 1.0);
  config.replay.measurement_start_fraction = 0.0;
  config.replay.bucket_seconds = 10.0;
  return config;
}

TEST(HierarchyFaultTest, EdgeOutageFallsBackToOrigin) {
  std::vector<trace::Trace> traces = {UniformTrace(100, 17), UniformTrace(100, 13)};
  fault::FaultSchedule schedule;
  schedule.Add(EdgeOutage(0, 20.0, 40.0));
  ASSERT_TRUE(schedule.Validate().ok());

  HierarchyConfig config = FaultHierarchyConfig();
  config.replay.faults = &schedule;
  HierarchyResult result = RunHierarchy(traces, config);

  EXPECT_GT(result.edge_unavailable_bytes, 0u);
  EXPECT_LT(result.availability, 1.0);
  // Conservation still holds: the origin picks up the outage traffic.
  EXPECT_EQ(result.edge_served_bytes + result.parent_served_bytes + result.origin_bytes,
            result.requested_bytes);
  // Outage traffic costs more than its byte count (penalty 2.0).
  EXPECT_GT(result.origin_cost, static_cast<double>(result.origin_bytes));
}

TEST(HierarchyFaultTest, ParentOutageAbsorbedByOriginThenRecovers) {
  // Distinct videos everywhere: edges redirect every request, so the parent
  // outage window [40, 60) diverts a steady redirect stream to the origin.
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1000 + i), 0, 1});
  }
  std::vector<trace::Trace> traces = {MakeTrace(reqs)};
  fault::FaultSchedule schedule;
  fault::FaultEvent parent;
  parent.kind = fault::FaultKind::kParentOutage;
  parent.start = 40.0;
  parent.end = 60.0;
  schedule.Add(parent);
  ASSERT_TRUE(schedule.Validate().ok());

  HierarchyConfig config = FaultHierarchyConfig();
  config.replay.faults = &schedule;
  HierarchyResult result = RunHierarchy(traces, config);

  EXPECT_GT(result.parent_outage_bytes, 0u);
  EXPECT_EQ(result.edge_unavailable_bytes, 0u);
  EXPECT_EQ(result.edge_served_bytes + result.parent_served_bytes + result.origin_bytes,
            result.requested_bytes);
  // The parent cache never saw the windowed requests: they reached the
  // parent replay as unavailable, so the requests it decided are the
  // redirect stream minus the fallthrough.
  HierarchyConfig clean = FaultHierarchyConfig();
  HierarchyResult reference = RunHierarchy(traces, clean);
  EXPECT_GT(result.parent.totals.unavailable_requests, 0u);
  EXPECT_LT(result.parent.totals.requests - result.parent.totals.unavailable_requests,
            reference.parent.totals.requests);

  // The per-bucket series shows the origin absorbing the window (buckets
  // [40,50) and [50,60)) and recovering outside it.
  ASSERT_GE(result.outage_origin_series.size(), 6u);
  EXPECT_GT(result.outage_origin_series[4], 0.0);
  EXPECT_GT(result.outage_origin_series[5], 0.0);
  EXPECT_DOUBLE_EQ(result.outage_origin_series[3], 0.0);
  for (size_t b = 6; b < result.outage_origin_series.size(); ++b) {
    EXPECT_DOUBLE_EQ(result.outage_origin_series[b], 0.0) << "bucket " << b;
  }
}

TEST(HierarchyFaultTest, TiersConserveRedirectsUnderParentOutage) {
  // Every edge redirect reaches the parent replay: the ones arriving while
  // the parent is down are its unavailable requests, and they are exactly
  // the CDN-wide parent-outage bytes (steady window [50, 100)).
  std::vector<trace::Trace> traces = {UniformTrace(100, 17), UniformTrace(100, 13)};
  fault::FaultSchedule schedule;
  fault::FaultEvent parent;
  parent.kind = fault::FaultKind::kParentOutage;
  parent.start = 60.0;
  parent.end = 80.0;
  schedule.Add(parent);
  ASSERT_TRUE(schedule.Validate().ok());

  HierarchyConfig config = FaultHierarchyConfig();
  config.replay.measurement_start_fraction = 0.5;
  config.replay.faults = &schedule;
  HierarchyResult result = RunHierarchy(traces, config);

  uint64_t edge_redirected_bytes = 0;
  for (const ReplayResult& edge : result.edges) {
    edge_redirected_bytes += edge.totals.redirected_bytes;
  }
  EXPECT_EQ(edge_redirected_bytes, result.parent.totals.requested_bytes);
  EXPECT_GT(result.parent.totals.unavailable_bytes, 0u);
  EXPECT_LT(result.parent.availability, 1.0);
  EXPECT_EQ(result.parent.steady.unavailable_bytes, result.parent_outage_bytes);
}

TEST(HierarchyFaultTest, ParallelMatchesSequentialUnderFaults) {
  std::vector<trace::Trace> traces;
  for (int e = 0; e < 4; ++e) {
    std::vector<ChunkReq> reqs;
    for (int i = 0; i < 300; ++i) {
      reqs.push_back({static_cast<double>(i),
                      static_cast<trace::VideoId>(1 + (i * (e + 3)) % 23), 0,
                      static_cast<uint32_t>(i % 4)});
    }
    traces.push_back(MakeTrace(reqs));
  }
  fault::RandomFaultOptions fault_options;
  fault_options.duration = 300.0;
  fault_options.num_edges = 4;
  fault_options.outages_per_edge = 1;
  fault_options.outage_fraction = 0.1;
  fault_options.restarts_per_edge = 1;
  fault_options.degrades_per_edge = 1;
  fault_options.parent_outages = 1;
  fault_options.parent_outage_fraction = 0.1;
  fault::FaultSchedule schedule = MakeRandomFaultSchedule(42, fault_options);

  auto run = [&](size_t threads, obs::MetricsRegistry& registry) {
    HierarchyConfig config = FaultHierarchyConfig();
    config.replay.faults = &schedule;
    config.replay.metrics = &registry;
    config.threads = threads;
    return RunHierarchy(traces, config);
  };
  obs::MetricsRegistry reference_registry;
  HierarchyResult reference = run(1, reference_registry);
  // The schedule must actually bite for this test to mean anything.
  ASSERT_GT(reference_registry.GetCounter("fault.unavailable_requests_total").value(), 0u);

  for (size_t threads : {2u, 7u}) {
    obs::MetricsRegistry registry;
    HierarchyResult result = run(threads, registry);

    EXPECT_EQ(result.requested_bytes, reference.requested_bytes);
    EXPECT_EQ(result.edge_served_bytes, reference.edge_served_bytes);
    EXPECT_EQ(result.parent_served_bytes, reference.parent_served_bytes);
    EXPECT_EQ(result.origin_bytes, reference.origin_bytes);
    EXPECT_EQ(result.edge_unavailable_bytes, reference.edge_unavailable_bytes);
    EXPECT_EQ(result.parent_outage_bytes, reference.parent_outage_bytes);
    EXPECT_EQ(result.availability, reference.availability);
    EXPECT_EQ(result.origin_cost, reference.origin_cost);
    for (const char* name : {"fault.unavailable_requests_total", "fault.dropped_chunks_total",
                             "fault.resize_evicted_chunks_total"}) {
      EXPECT_EQ(registry.GetCounter(name).value(), reference_registry.GetCounter(name).value())
          << name;
    }
    ASSERT_EQ(result.outage_origin_series.size(), reference.outage_origin_series.size());
    for (size_t b = 0; b < result.outage_origin_series.size(); ++b) {
      EXPECT_EQ(result.outage_origin_series[b], reference.outage_origin_series[b]);
    }
    EXPECT_EQ(result.parent.totals.requests, reference.parent.totals.requests);
    EXPECT_EQ(result.parent.totals.served_bytes, reference.parent.totals.served_bytes);
  }
}

TEST(FleetFaultTest, DigestIdenticalAcrossThreadCounts) {
  std::vector<trace::Trace> traces;
  std::vector<FleetServer> servers;
  for (int s = 0; s < 3; ++s) {
    std::vector<ChunkReq> reqs;
    for (int i = 0; i < 400; ++i) {
      reqs.push_back({static_cast<double>(i),
                      static_cast<trace::VideoId>(1 + (i * (s + 2)) % 31), 0,
                      static_cast<uint32_t>(i % 3)});
    }
    traces.push_back(MakeTrace(reqs));
  }
  for (int s = 0; s < 3; ++s) {
    FleetServer server;
    server.name = "s";
    server.name += std::to_string(s);
    server.kind = core::CacheKind::kCafe;
    server.config = SmallConfig(24, 2.0);
    server.trace = &traces[static_cast<size_t>(s)];
    servers.push_back(server);
  }

  fault::RandomFaultOptions fault_options;
  fault_options.duration = 400.0;
  fault_options.num_edges = 3;
  fault_options.outages_per_edge = 2;
  fault_options.outage_fraction = 0.15;
  fault_options.restarts_per_edge = 1;
  fault_options.degrades_per_edge = 1;
  fault::FaultSchedule schedule = MakeRandomFaultSchedule(7, fault_options);

  auto run = [&](size_t threads, const fault::FaultSchedule* faults) {
    FleetOptions options;
    options.threads = threads;
    options.replay.measurement_start_fraction = 0.0;
    options.replay.bucket_seconds = 50.0;
    options.replay.faults = faults;
    return RunFleet(servers, options);
  };

  FleetResult sequential = run(1, &schedule);
  ASSERT_GT(sequential.totals.unavailable_requests, 0u);
  const uint64_t reference_digest = FleetDigest(sequential);
  for (size_t threads : {2u, 7u}) {
    EXPECT_EQ(FleetDigest(run(threads, &schedule)), reference_digest) << threads << " threads";
  }
  // The digest covers the degraded-mode accounting: a fault-free run of the
  // same fleet hashes differently.
  EXPECT_NE(FleetDigest(run(1, nullptr)), reference_digest);
}

}  // namespace
}  // namespace vcdn::sim
