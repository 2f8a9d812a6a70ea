// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/hierarchy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_fleet.h"
#include "src/trace/request_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "tests/cache_test_util.h"

namespace vcdn::sim {
namespace {

using ::vcdn::testing::ChunkReq;
using ::vcdn::testing::MakeTrace;
using ::vcdn::testing::SmallConfig;

HierarchyConfig TestHierarchyConfig() {
  HierarchyConfig config;
  config.edge_kind = core::CacheKind::kCafe;
  config.edge_config = SmallConfig(16, 2.0);
  config.parent_kind = core::CacheKind::kCafe;
  config.parent_config = SmallConfig(64, 1.0);
  config.replay.measurement_start_fraction = 0.0;
  return config;
}

TEST(HierarchyTest, ParentSeesOnlyEdgeRedirects) {
  // Two edges with a fully cacheable hot set: after warmup nothing reaches
  // the parent except first-seen and admission misses.
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 200; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + i % 3), 0, 1});
  }
  std::vector<trace::Trace> traces = {MakeTrace(reqs), MakeTrace(reqs)};
  HierarchyResult result = RunHierarchy(traces, TestHierarchyConfig());
  ASSERT_EQ(result.edges.size(), 2u);
  uint64_t edge_redirected = result.edges[0].totals.redirected_requests +
                             result.edges[1].totals.redirected_requests;
  EXPECT_EQ(result.parent.totals.requests, edge_redirected);
}

TEST(HierarchyTest, BytesConserveAcrossTiers) {
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 300; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + i % 17), 0,
                    static_cast<uint32_t>(i % 3)});
  }
  std::vector<trace::Trace> traces = {MakeTrace(reqs)};
  HierarchyResult result = RunHierarchy(traces, TestHierarchyConfig());
  // Edge-served + parent-served + origin == total demand.
  EXPECT_EQ(result.edge_served_bytes + result.parent_served_bytes + result.origin_bytes,
            result.requested_bytes);
  EXPECT_GE(result.cdn_hit_fraction, result.edge_hit_fraction);
}

TEST(HierarchyTest, ParentAbsorbsCrossEdgePopularity) {
  // A video unpopular at each individual edge but requested at all edges:
  // edges redirect it, the parent sees the aggregate demand and caches it.
  std::vector<trace::Trace> traces;
  for (int e = 0; e < 4; ++e) {
    std::vector<ChunkReq> reqs;
    for (int i = 0; i < 150; ++i) {
      // Each edge's hot set keeps its cache busy...
      reqs.push_back({static_cast<double>(2 * i) + 0.1 * e,
                      static_cast<trace::VideoId>(100 * (e + 1) + i % 3), 0, 1});
      // ...while video 7 appears only rarely per edge.
      if (i % 29 == 0) {
        reqs.push_back({static_cast<double>(2 * i + 1) + 0.1 * e, 7, 0, 1});
      }
    }
    traces.push_back(MakeTrace(reqs));
  }
  HierarchyResult result = RunHierarchy(traces, TestHierarchyConfig());
  // The parent must have served a decent share of what reached it.
  EXPECT_GT(result.parent.totals.served_requests, 0u);
}

TEST(HierarchyTest, ParallelMatchesSequential) {
  // Four edges with overlapping timestamps so the parent's merged redirect
  // stream is full of cross-edge ties -- the case the (time, edge, sequence)
  // merge order must resolve exactly like the sequential stable_sort.
  std::vector<trace::Trace> traces;
  for (int e = 0; e < 4; ++e) {
    std::vector<ChunkReq> reqs;
    for (int i = 0; i < 400; ++i) {
      reqs.push_back({static_cast<double>(i),  // identical times on every edge
                      static_cast<trace::VideoId>(1 + (i * (e + 3)) % 23), 0,
                      static_cast<uint32_t>(i % 4)});
    }
    traces.push_back(MakeTrace(reqs));
  }

  HierarchyConfig sequential = TestHierarchyConfig();
  sequential.threads = 1;
  HierarchyResult reference = RunHierarchy(traces, sequential);

  for (size_t threads : {2u, 7u}) {
    HierarchyConfig parallel = TestHierarchyConfig();
    parallel.threads = threads;
    HierarchyResult result = RunHierarchy(traces, parallel);

    EXPECT_EQ(result.requested_bytes, reference.requested_bytes);
    EXPECT_EQ(result.edge_served_bytes, reference.edge_served_bytes);
    EXPECT_EQ(result.edge_filled_bytes, reference.edge_filled_bytes);
    EXPECT_EQ(result.parent_served_bytes, reference.parent_served_bytes);
    EXPECT_EQ(result.parent_filled_bytes, reference.parent_filled_bytes);
    EXPECT_EQ(result.origin_bytes, reference.origin_bytes);
    EXPECT_EQ(result.edge_hit_fraction, reference.edge_hit_fraction);
    EXPECT_EQ(result.cdn_hit_fraction, reference.cdn_hit_fraction);
    // The parent replay depends on the exact merged request order: equality
    // here means the parallel merge reproduced it byte-for-byte.
    EXPECT_EQ(result.parent.totals.requests, reference.parent.totals.requests);
    EXPECT_EQ(result.parent.totals.served_bytes, reference.parent.totals.served_bytes);
    EXPECT_EQ(result.parent.totals.filled_bytes, reference.parent.totals.filled_bytes);
    EXPECT_EQ(result.parent.totals.evicted_chunks, reference.parent.totals.evicted_chunks);
    ASSERT_EQ(result.edges.size(), reference.edges.size());
    for (size_t i = 0; i < result.edges.size(); ++i) {
      EXPECT_EQ(result.edges[i].totals.served_bytes, reference.edges[i].totals.served_bytes);
      EXPECT_EQ(result.edges[i].totals.filled_bytes, reference.edges[i].totals.filled_bytes);
    }
  }
}

// FleetDigest over the given per-server results alone.
uint64_t ServersDigest(std::vector<ReplayResult> servers) {
  FleetResult fleet;
  for (const ReplayResult& server : servers) {
    fleet.totals.Add(server.totals);
    fleet.steady.Add(server.steady);
  }
  fleet.servers = std::move(servers);
  return FleetDigest(fleet);
}

TEST(HierarchyTest, EdgeTierIsTheFleet) {
  // RunHierarchy's edges are a RunFleet fleet: with the same replay options
  // (faults included, edge i = target i) every edge result matches RunFleet
  // over the same edges, from traces or from stream factories, at any thread
  // count.
  std::vector<trace::Trace> traces;
  for (int e = 0; e < 4; ++e) {
    std::vector<ChunkReq> reqs;
    for (int i = 0; i < 300; ++i) {
      reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + (i * (e + 3)) % 23),
                      0, static_cast<uint32_t>(i % 4)});
    }
    traces.push_back(MakeTrace(reqs));
  }
  std::vector<StreamFactory> streams;
  for (const trace::Trace& trace : traces) {
    streams.push_back([&trace] { return std::make_unique<trace::TraceView>(trace); });
  }
  fault::FaultSchedule schedule;
  schedule.Add({fault::FaultKind::kEdgeOutage, 100.0, 150.0, 1, 1.0, 1.0});
  schedule.Add({fault::FaultKind::kDiskDegrade, 50.0, 200.0, 3, 0.5, 1.0});
  ASSERT_TRUE(schedule.Validate().ok());

  // The fault counters a run leaves in its registry.
  auto fault_counts = [](obs::MetricsRegistry& registry) {
    return std::vector<uint64_t>{
        registry.GetCounter("fault.unavailable_requests_total").value(),
        registry.GetCounter("fault.resize_events_total").value(),
        registry.GetCounter("fault.resize_evicted_chunks_total").value()};
  };
  HierarchyConfig config = TestHierarchyConfig();
  config.replay.bucket_seconds = 50.0;
  config.replay.faults = &schedule;
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::MetricsRegistry fleet_registry;
    FleetOptions options;
    options.threads = threads;
    options.replay = config.replay;
    options.replay.metrics = &fleet_registry;
    std::vector<FleetServer> from_traces;
    std::vector<FleetServer> from_streams;
    for (size_t i = 0; i < traces.size(); ++i) {
      from_traces.push_back(FleetServer{"edge" + std::to_string(i), config.edge_kind,
                                        config.edge_config, &traces[i], {}});
      from_streams.push_back(FleetServer{"edge" + std::to_string(i), config.edge_kind,
                                         config.edge_config, nullptr, streams[i]});
    }
    const FleetResult fleet = RunFleet(from_traces, options);
    const std::vector<uint64_t> fleet_faults = fault_counts(fleet_registry);
    ASSERT_GT(fleet.servers[1].totals.unavailable_requests, 0u);
    ASSERT_GT(fleet_registry.GetCounter("fault.resize_events_total").value(), 0u);
    const uint64_t expected = FleetDigest(fleet);
    options.replay.metrics = nullptr;
    EXPECT_EQ(FleetDigest(RunFleet(from_streams, options)), expected);

    obs::MetricsRegistry hierarchy_registry;
    config.threads = threads;
    config.replay.metrics = &hierarchy_registry;
    const HierarchyResult result = RunHierarchy(traces, config);
    config.replay.metrics = nullptr;
    ASSERT_EQ(result.edges.size(), fleet.servers.size());
    EXPECT_EQ(ServersDigest(result.edges), expected);
    // The parent has no fault of its own here, so every fault count is the
    // edges'.
    EXPECT_EQ(fault_counts(hierarchy_registry), fleet_faults);
    for (size_t i = 0; i < result.edges.size(); ++i) {
      EXPECT_EQ(result.edges[i].cache_name, fleet.servers[i].cache_name);
      EXPECT_EQ(result.edges[i].availability, fleet.servers[i].availability);
      EXPECT_EQ(result.edges[i].totals.unavailable_requests,
                fleet.servers[i].totals.unavailable_requests);
    }
  }
}

TEST(HierarchyTest, DeeperParentAbsorbsMore) {
  trace::WorkloadConfig workload;
  workload.profile = trace::EuropeProfile(0.03);
  workload.profile.base_request_rate = 0.08;
  workload.duration_seconds = 4.0 * 86400.0;
  std::vector<trace::Trace> traces = {trace::WorkloadGenerator(workload).Generate().trace};

  HierarchyConfig small = TestHierarchyConfig();
  small.edge_config.chunk_bytes = 2ull << 20;
  small.edge_config.disk_capacity_chunks = 600;
  small.parent_config.chunk_bytes = 2ull << 20;
  small.parent_config.disk_capacity_chunks = 600;
  HierarchyConfig deep = small;
  deep.parent_config.disk_capacity_chunks = 6000;

  HierarchyResult small_result = RunHierarchy(traces, small);
  HierarchyResult deep_result = RunHierarchy(traces, deep);
  EXPECT_GT(deep_result.cdn_hit_fraction, small_result.cdn_hit_fraction);
  EXPECT_LT(deep_result.origin_bytes, small_result.origin_bytes);
}

}  // namespace
}  // namespace vcdn::sim
