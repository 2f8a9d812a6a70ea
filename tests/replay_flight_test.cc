// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Flight recorder and windowed series through the replay engine, end to end:
// the hot-path contract (recording allocates nothing), the fleet contract
// (series and merged ring are bit-identical at any thread count), and the
// post-mortem contract (a seeded fault replay dumps byte-identical JSONL
// across runs). Links vcdn_alloc_hook so AllocCounters() ticks.

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_metadata.h"
#include "src/obs/time_series.h"
#include "src/sim/hierarchy.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/util/alloc_hook.h"
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

obs::RunMetadata TestMeta() {
  obs::RunMetadata meta;
  meta.git_describe = "test-deadbeef";
  meta.build_type = "Test";
  meta.compiler = "testc++ 1.0";
  meta.workload = "replay flight test";
  meta.seed = 1;
  return meta;
}

// The registry's JSON without the pool's own exec.* instruments, the only
// entries that depend on whether a pool ran.
std::string JsonWithoutExec(const obs::MetricsRegistry& registry) {
  std::ostringstream out;
  registry.WriteJson(out);
  static const std::regex kExecEntry("\"exec\\.[^\"]*\":[^,}]*,?");
  static const std::regex kTrailingComma(",\\}");
  return std::regex_replace(std::regex_replace(out.str(), kExecEntry, ""), kTrailingComma, "}");
}

// Serializes a ring through the post-mortem writer with a fixed context, so
// two rings compare by their full record contents in one string compare.
std::string RingBytes(const obs::FlightRecorder& ring) {
  std::ostringstream out;
  obs::WritePostMortemJsonl(out, TestMeta(),
                            obs::CaptureFlight(ring, {"test", "ring", 0.0, ""}));
  return out.str();
}

TEST(ReplayFlightTest, RecordIsAllocFree) {
  ASSERT_TRUE(util::AllocHookActive());
  obs::FlightRecorder ring(1024);
  obs::DecisionRecord record;
  record.requested_bytes = 2048;
  record.hit_chunks = 2;
  util::AllocScope scope;
  for (int i = 0; i < 100000; ++i) {
    record.time = static_cast<double>(i);
    record.key = static_cast<uint64_t>(i);
    ring.Record(record);
  }
  EXPECT_EQ(scope.Delta().allocations, 0u)
      << "FlightRecorder::Record must never allocate (hot-path contract)";
  EXPECT_EQ(ring.total_recorded(), 100000u);
}

TEST(ReplayFlightTest, FlightRecordingAddsNoAllocationsToReplay) {
  ASSERT_TRUE(util::AllocHookActive());
  trace::Trace trace = UniformTrace(2000, 5);
  ReplayOptions base;
  base.measurement_start_fraction = 0.0;

  auto run = [&](obs::FlightRecorder* flight) {
    auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(32, 1.0));
    ReplayOptions options = base;
    options.flight = flight;
    util::AllocScope scope;
    Replay(*cache, trace, options);
    return scope.Delta().allocations;
  };

  obs::FlightRecorder ring(256);
  run(nullptr);  // warm up one-time statics so the comparison is clean
  run(&ring);
  const uint64_t without_flight = run(nullptr);
  const uint64_t with_flight = run(&ring);
  // The ring is preallocated and Record is a bounded store: attaching it to
  // a replay must not add a single allocation, per-request or otherwise.
  EXPECT_EQ(with_flight, without_flight);
}

TEST(ReplayFlightTest, FleetSeriesAndRingAreThreadCountInvariant) {
  std::vector<trace::Trace> traces;
  traces.push_back(UniformTrace(200, 3));
  traces.push_back(UniformTrace(200, 7));
  traces.push_back(UniformTrace(200, 11));
  traces.push_back(UniformTrace(200, 5));

  auto run = [&](size_t threads, std::string* series_bytes, std::string* ring_bytes) {
    std::vector<FleetServer> servers;
    for (size_t i = 0; i < traces.size(); ++i) {
      FleetServer server;
      server.name = "server" + std::to_string(i);
      server.kind = core::CacheKind::kFillLru;
      server.config = SmallConfig(16, 1.0);
      server.trace = &traces[i];
      servers.push_back(server);
    }
    obs::MetricsRegistry registry;
    obs::TimeSeriesRecorder series(&registry);
    obs::FlightRecorder ring(64);
    FleetOptions options;
    options.threads = threads;
    options.replay.measurement_start_fraction = 0.0;
    options.replay.bucket_seconds = 50.0;
    options.replay.metrics = &registry;
    options.replay.series = &series;
    options.replay.flight = &ring;
    FleetResult result = RunFleet(servers, options);

    std::ostringstream out;
    series.WriteJsonl(out, TestMeta());
    *series_bytes = out.str();
    *ring_bytes = RingBytes(ring);
    return FleetDigest(result);
  };

  std::string series_seq, ring_seq, series_par, ring_par;
  const uint64_t digest_seq = run(1, &series_seq, &ring_seq);
  const uint64_t digest_par = run(4, &series_par, &ring_par);

  EXPECT_EQ(digest_seq, digest_par);
  EXPECT_EQ(series_seq, series_par) << "merged series must not depend on thread count";
  EXPECT_EQ(ring_seq, ring_par) << "merged ring must not depend on thread count";
  // The series actually recorded windows (200s at 50s buckets, 4 shards
  // merged window-by-window -> 4-5 distinct window lines, not zero).
  EXPECT_NE(series_seq.find("\"type\":\"window\""), std::string::npos);
}

TEST(ReplayFlightTest, HierarchySeriesRingAndRegistryAreThreadCountInvariant) {
  std::vector<trace::Trace> traces;
  traces.push_back(UniformTrace(200, 3));
  traces.push_back(UniformTrace(200, 7));
  traces.push_back(UniformTrace(200, 11));
  traces.push_back(UniformTrace(200, 5));

  struct Telemetry {
    std::string series;
    std::string ring;
    std::string registry;
  };
  auto run = [&](size_t threads) {
    obs::MetricsRegistry registry;
    obs::TimeSeriesRecorder series(&registry);
    // Large enough to hold every edge and parent decision.
    obs::FlightRecorder ring(4096);
    HierarchyConfig config;
    config.edge_kind = core::CacheKind::kCafe;
    config.edge_config = SmallConfig(16, 2.0);
    config.parent_kind = core::CacheKind::kCafe;
    config.parent_config = SmallConfig(64, 1.0);
    config.threads = threads;
    config.replay.measurement_start_fraction = 0.0;
    config.replay.bucket_seconds = 50.0;
    config.replay.metrics = &registry;
    config.replay.series = &series;
    config.replay.flight = &ring;
    HierarchyResult result = RunHierarchy(traces, config);
    EXPECT_GT(result.parent.totals.requests, 0u) << "the parent tier must see redirects";

    std::ostringstream out;
    series.WriteJsonl(out, TestMeta());
    return Telemetry{out.str(), RingBytes(ring), JsonWithoutExec(registry)};
  };

  const Telemetry sequential = run(1);
  const Telemetry parallel = run(4);
  EXPECT_EQ(sequential.series, parallel.series) << "merged series must not depend on thread count";
  EXPECT_EQ(sequential.ring, parallel.ring) << "merged ring must not depend on thread count";
  EXPECT_EQ(sequential.registry, parallel.registry)
      << "merged registry must not depend on thread count";
  EXPECT_NE(sequential.series.find("\"type\":\"window\""), std::string::npos);
  EXPECT_NE(sequential.registry.find("\"sim.replay.requests_total\""), std::string::npos);
}

TEST(ReplayFlightTest, SeededFaultPostMortemIsByteIdenticalAcrossRuns) {
  trace::Trace trace = UniformTrace(300, 6);
  // A degrade window: its start and end are the cache-mutating boundaries
  // that trigger flight captures (outage windows reroute traffic without
  // touching the cache, so they capture nothing).
  fault::FaultSchedule schedule;
  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDiskDegrade;
  degrade.target = 0;
  degrade.start = 100.0;
  degrade.end = 150.0;
  degrade.capacity_factor = 0.25;
  schedule.Add(degrade);
  ASSERT_TRUE(schedule.Validate().ok());

  auto run = [&] {
    auto cache = core::MakeCache(core::CacheKind::kFillLru, SmallConfig(24, 1.0));
    obs::FlightRecorder ring(128);
    std::vector<obs::FlightCapture> captures;
    ReplayOptions options;
    options.measurement_start_fraction = 0.0;
    options.faults = &schedule;
    options.fault_target = 0;
    options.flight = &ring;
    options.flight_captures = &captures;
    options.flight_label = "edge0";
    Replay(*cache, trace, options);

    // Both fault boundaries (outage start and end) captured the ring.
    EXPECT_EQ(captures.size(), 2u);
    std::ostringstream out;
    for (const obs::FlightCapture& capture : captures) {
      obs::WritePostMortemJsonl(out, TestMeta(), capture);
    }
    return out.str();
  };

  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "seeded fault post-mortem must be byte-reproducible";
  EXPECT_NE(first.find("\"trigger\":\"fault_boundary\""), std::string::npos);
  EXPECT_NE(first.find("\"label\":\"edge0\""), std::string::npos);
  // The active schedule rides along in the dump.
  EXPECT_NE(first.find("\"type\":\"fault_schedule\""), std::string::npos);
}

}  // namespace
}  // namespace vcdn::sim
