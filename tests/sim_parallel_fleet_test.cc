// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Determinism contract of sim::RunFleet (docs/PARALLELISM.md): for any
// thread count and any scheduling, the merged results -- per-server totals,
// series, fleet sums, metrics registries, fleet trace lanes -- are identical
// to the sequential threads=1 reference. A golden case pins the digests of
// a reduced-scale Fig. 7 fleet to recorded constants.

#include "src/sim/parallel_fleet.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/core/chunk.h"
#include "src/exec/thread_pool.h"
#include "src/trace/generated_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace vcdn::sim {
namespace {

// A small but non-trivial fleet: four generated workloads (decorrelated
// SplitSeed streams), mixed algorithms and disk sizes.
class ParallelFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const core::CacheKind kinds[] = {core::CacheKind::kXlru, core::CacheKind::kCafe,
                                     core::CacheKind::kPsychic, core::CacheKind::kCafe};
    traces_.reserve(4);  // growth must not invalidate the FleetServer pointers
    for (size_t i = 0; i < 4; ++i) {
      trace::WorkloadConfig workload;
      workload.profile = trace::EuropeProfile(0.02);
      workload.profile.base_request_rate = 0.05 + 0.02 * static_cast<double>(i);
      workload.duration_seconds = 2.0 * 86400.0;
      workload.seed = util::SplitSeed(7, i);
      traces_.push_back(trace::WorkloadGenerator(workload).Generate().trace);

      core::CacheConfig config;
      config.chunk_bytes = 2ull << 20;
      config.disk_capacity_chunks = 200 + 100 * i;
      config.alpha_f2r = 2.0;
      servers_.push_back(
          FleetServer{"server" + std::to_string(i), kinds[i], config, &traces_.back(), {}});
    }
  }

  std::vector<trace::Trace> traces_;
  std::vector<FleetServer> servers_;
};

void ExpectTotalsEq(const ReplayTotals& a, const ReplayTotals& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.served_bytes, b.served_bytes);
  EXPECT_EQ(a.redirected_bytes, b.redirected_bytes);
  EXPECT_EQ(a.filled_bytes, b.filled_bytes);
  EXPECT_EQ(a.evicted_chunks, b.evicted_chunks);
  EXPECT_EQ(a.requested_chunks, b.requested_chunks);
  EXPECT_EQ(a.filled_chunks, b.filled_chunks);
  EXPECT_EQ(a.redirected_chunks, b.redirected_chunks);
  EXPECT_EQ(a.proactive_filled_chunks, b.proactive_filled_chunks);
}

void ExpectResultsEq(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.servers.size(), b.servers.size());
  ExpectTotalsEq(a.totals, b.totals);
  ExpectTotalsEq(a.steady, b.steady);
  for (size_t i = 0; i < a.servers.size(); ++i) {
    const ReplayResult& x = a.servers[i];
    const ReplayResult& y = b.servers[i];
    EXPECT_EQ(x.cache_name, y.cache_name);
    ExpectTotalsEq(x.totals, y.totals);
    ExpectTotalsEq(x.steady, y.steady);
    EXPECT_EQ(x.efficiency, y.efficiency);  // bitwise, not approximate
    EXPECT_EQ(x.ingress_fraction, y.ingress_fraction);
    EXPECT_EQ(x.redirect_fraction, y.redirect_fraction);
    ASSERT_EQ(x.series.size(), y.series.size());
    for (size_t p = 0; p < x.series.size(); ++p) {
      EXPECT_EQ(x.series[p].bucket_start, y.series[p].bucket_start);
      EXPECT_EQ(x.series[p].requested_bytes, y.series[p].requested_bytes);
      EXPECT_EQ(x.series[p].served_bytes, y.series[p].served_bytes);
      EXPECT_EQ(x.series[p].redirected_bytes, y.series[p].redirected_bytes);
      EXPECT_EQ(x.series[p].filled_bytes, y.series[p].filled_bytes);
    }
  }
  EXPECT_EQ(FleetDigest(a), FleetDigest(b));
}

TEST_F(ParallelFleetTest, ParallelIsIdenticalToSequentialForAnyThreadCount) {
  FleetOptions sequential;
  sequential.threads = 1;
  FleetResult reference = RunFleet(servers_, sequential);
  EXPECT_EQ(reference.threads, 1u);

  for (size_t threads : {2u, 7u}) {
    FleetOptions options;
    options.threads = threads;
    FleetResult result = RunFleet(servers_, options);
    EXPECT_EQ(result.threads, threads);
    ExpectResultsEq(result, reference);
  }
}

TEST_F(ParallelFleetTest, RepeatedRunsAgree) {
  uint64_t first_digest = 0;
  for (int run = 0; run < 3; ++run) {
    FleetOptions options;
    options.threads = 3;
    FleetResult result = RunFleet(servers_, options);
    if (run == 0) {
      first_digest = FleetDigest(result);
    } else {
      EXPECT_EQ(FleetDigest(result), first_digest);
    }
  }
}

TEST_F(ParallelFleetTest, FleetTotalsAreSumsOfServerTotals) {
  FleetOptions options;
  options.threads = 2;
  FleetResult result = RunFleet(servers_, options);
  ReplayTotals sum;
  for (const ReplayResult& server : result.servers) {
    sum.Add(server.totals);
  }
  ExpectTotalsEq(result.totals, sum);
  EXPECT_GT(result.totals.requests, 0u);
}

// Sample vectors with the executor's own instruments and the wall-clock
// throughput gauge removed -- the only registry content that legitimately
// depends on whether (and how fast) a pool ran.
template <typename Samples>
Samples DeterministicSamples(const Samples& samples) {
  Samples out;
  for (const auto& sample : samples) {
    if (sample.first.rfind("exec.", 0) == 0 || sample.first == "sim.replay.requests_per_sec") {
      continue;
    }
    out.push_back(sample);
  }
  return out;
}

TEST_F(ParallelFleetTest, MergedRegistryMatchesSequentialRecording) {
  obs::MetricsRegistry sequential_registry;
  FleetOptions sequential;
  sequential.threads = 1;
  sequential.replay.metrics = &sequential_registry;
  RunFleet(servers_, sequential);

  obs::MetricsRegistry parallel_registry;
  FleetOptions parallel;
  parallel.threads = 5;
  parallel.replay.metrics = &parallel_registry;
  RunFleet(servers_, parallel);

  EXPECT_EQ(DeterministicSamples(sequential_registry.CounterSamples()),
            DeterministicSamples(parallel_registry.CounterSamples()));
  EXPECT_EQ(DeterministicSamples(sequential_registry.GaugeSamples()),
            DeterministicSamples(parallel_registry.GaugeSamples()));
}

TEST_F(ParallelFleetTest, FleetTraceLanesMatchSequentialRecording) {
  auto fleet_lane_events = [](const obs::TraceEventSink& sink) {
    // (name, phase, tid) sequence of the merged shard lanes; timestamps and
    // wall-clock counter samples are exempt from the contract.
    std::vector<std::string> out;
    for (const obs::TraceEvent& event : sink.events()) {
      if (event.tid < obs::kFleetTidBase || event.name == "sim.replay.requests_per_sec") {
        continue;
      }
      out.push_back(event.name + "/" + event.phase + "/" + std::to_string(event.tid));
    }
    return out;
  };

  obs::TraceEventSink sequential_sink;
  FleetOptions sequential;
  sequential.threads = 1;
  sequential.replay.trace_sink = &sequential_sink;
  RunFleet(servers_, sequential);

  obs::TraceEventSink parallel_sink;
  FleetOptions parallel;
  parallel.threads = 4;
  parallel.replay.trace_sink = &parallel_sink;
  RunFleet(servers_, parallel);

  std::vector<std::string> sequential_events = fleet_lane_events(sequential_sink);
  EXPECT_FALSE(sequential_events.empty());
  EXPECT_EQ(sequential_events, fleet_lane_events(parallel_sink));
}

TEST_F(ParallelFleetTest, RunsOnAnExternalPool) {
  FleetOptions sequential;
  sequential.threads = 1;
  uint64_t reference = FleetDigest(RunFleet(servers_, sequential));

  exec::ThreadPool pool(3);
  FleetOptions options;
  options.pool = &pool;
  FleetResult result = RunFleet(servers_, options);
  EXPECT_EQ(result.threads, 3u);
  EXPECT_EQ(FleetDigest(result), reference);
  pool.Shutdown();
  EXPECT_GE(pool.stats().executed, servers_.size());
}

TEST_F(ParallelFleetTest, DigestIsSensitiveToResults) {
  FleetOptions options;
  options.threads = 2;
  FleetResult result = RunFleet(servers_, options);
  uint64_t digest = FleetDigest(result);
  result.servers[0].totals.served_bytes ^= 1;
  EXPECT_NE(FleetDigest(result), digest);
}

// Golden digests: the Fig. 7 fleet (six paper server profiles x {xLRU, Cafe},
// server-major shard order) at a reduced workload scale, with the disk
// scaled by the same factor. Every other digest test compares two
// configurations of one build, so a decision change shared by both sides
// would pass them; these constants pin the decisions themselves. They were
// recorded before Cafe moved onto its single chunk table and must only change
// together with a deliberate change of an algorithm's decisions.
TEST(FleetGoldenDigestTest, ReducedFig7FleetMatchesPinnedDigests) {
  constexpr double kScale = 0.1;
  constexpr double kDays = 7.0;
  constexpr double kChunksPerPaperTb = 4096.0 * kScale;
  struct Golden {
    double paper_tb;
    uint64_t digest;
  };
  constexpr Golden kGolden[] = {{1.0, 0x892b768f39b0ece7ULL}, {0.25, 0x029592327d6bc42fULL}};

  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(kScale);
  std::vector<trace::WorkloadConfig> workloads;
  for (size_t s = 0; s < profiles.size(); ++s) {
    trace::WorkloadConfig workload;
    workload.profile = profiles[s];
    workload.seed = util::SplitSeed(1, s);
    workload.duration_seconds = kDays * 86400.0;
    workloads.push_back(workload);
  }
  trace::ParallelGenerateOptions generate;
  generate.threads = 2;
  std::vector<trace::GeneratedWorkload> generated = trace::GenerateWorkloads(workloads, generate);

  for (const Golden& golden : kGolden) {
    core::CacheConfig config;
    config.chunk_bytes = core::kDefaultChunkBytes;
    config.disk_capacity_chunks = static_cast<uint64_t>(golden.paper_tb * kChunksPerPaperTb);
    config.alpha_f2r = 2.0;
    std::vector<FleetServer> fleet;
    for (size_t s = 0; s < profiles.size(); ++s) {
      for (core::CacheKind kind : {core::CacheKind::kXlru, core::CacheKind::kCafe}) {
        fleet.push_back(FleetServer{profiles[s].name + "/" + std::string(core::CacheKindName(kind)),
                                    kind, config, &generated[s].trace, {}});
      }
    }
    for (size_t batch : {size_t{1}, size_t{16}}) {
      FleetOptions options;
      options.threads = 2;
      options.replay.batch_size = batch;
      EXPECT_EQ(FleetDigest(RunFleet(fleet, options)), golden.digest)
          << "paper_tb " << golden.paper_tb << ", batch " << batch;
    }
  }
}

// The streaming equivalence pin: the Fig. 7 fleet at scale 0.25 for 30 days,
// 1 paper-TB disks of 4,096 chunks, alpha 2 and batch 16, replayed from each
// producer -- materialized traces, trace::GeneratedStream on a dedicated
// generator pool (never the fleet pool), and the same traces packed into a
// VCDNTRS2 file and streamed from the mapping. Every producer must give the
// scale-0.25 fleet digest recorded in docs/TRACE_FORMAT.md.
TEST(FleetGoldenDigestTest, ScaleSweepProducersMatchPinnedDigest) {
  constexpr double kScale = 0.25;
  constexpr uint64_t kDigest = 0x23d1728431e11ee0ULL;
  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(kScale);
  std::vector<trace::WorkloadConfig> workloads;
  for (size_t s = 0; s < profiles.size(); ++s) {
    trace::WorkloadConfig workload;
    workload.profile = profiles[s];
    workload.seed = util::SplitSeed(1, s);
    workload.duration_seconds = 30.0 * 86400.0;
    workloads.push_back(workload);
  }
  trace::ParallelGenerateOptions generate;
  generate.threads = 2;
  const std::vector<trace::GeneratedWorkload> generated =
      trace::GenerateWorkloads(workloads, generate);

  std::vector<const trace::Trace*> traces;
  for (const trace::GeneratedWorkload& workload : generated) {
    traces.push_back(&workload.trace);
  }
  const std::string path = testing::TempDir() + "fleet_golden_digest_test.vtrs";
  ASSERT_TRUE(trace::WriteTraceFile(traces, path).ok());
  util::Result<trace::MmapTrace> mapped = trace::MmapTrace::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const trace::MmapTrace& file = mapped.value();
  exec::ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  exec::ThreadPool generator_pool(pool_options);

  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = 4096;
  config.alpha_f2r = 2.0;
  FleetOptions options;
  options.threads = 2;
  options.replay.batch_size = 16;
  for (const char* producer : {"materialized", "generated", "mmap"}) {
    const std::string name = producer;
    std::vector<FleetServer> fleet;
    for (size_t s = 0; s < profiles.size(); ++s) {
      for (core::CacheKind kind : {core::CacheKind::kXlru, core::CacheKind::kCafe}) {
        FleetServer server{profiles[s].name + "/" + std::string(core::CacheKindName(kind)), kind,
                           config, nullptr, {}};
        if (name == "materialized") {
          server.trace = traces[s];
        } else if (name == "generated") {
          const trace::WorkloadConfig workload = workloads[s];
          server.stream = [workload, &generator_pool]() -> std::unique_ptr<trace::RequestStream> {
            trace::GeneratedStreamOptions stream_options;
            stream_options.generator_pool = &generator_pool;
            return std::make_unique<trace::GeneratedStream>(workload, stream_options);
          };
        } else {
          server.stream = [&file, s]() { return file.ServerStream(s); };
        }
        fleet.push_back(std::move(server));
      }
    }
    EXPECT_EQ(FleetDigest(RunFleet(fleet, options)), kDigest) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vcdn::sim
