// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Streaming-vs-materialized equivalence suite: every producer that can feed
// a replay -- the materialized Trace path, trace::GeneratedStream
// (generate-as-you-replay) and trace::MmapTrace (packed VCDNTRS2 file) --
// must be observationally indistinguishable: identical fleet digests across
// thread counts and batch sizes, identical per-request outcome streams,
// byte-identical time-series JSONL and flight-ring contents, identical
// fault accounting when a schedule bites mid-stream, and an identical
// two-tier hierarchy result. This is the contract that lets streaming
// replay (bench_scale_sweep, perfbench's fleet-mmap and fleet-churn) stand
// in for the materialized reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/fault/fault.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_metadata.h"
#include "src/obs/time_series.h"
#include "src/sim/hierarchy.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/trace/generated_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace vcdn::sim {
namespace {

enum class Producer { kMaterialized, kGenerated, kMmap };

const char* Name(Producer p) {
  switch (p) {
    case Producer::kMaterialized:
      return "materialized";
    case Producer::kGenerated:
      return "generated";
    case Producer::kMmap:
      return "mmap";
  }
  return "?";
}

struct OutcomeRecord {
  double arrival_time = 0.0;
  core::Decision decision = core::Decision::kServe;
  uint64_t hit_chunks = 0;
  uint64_t filled_chunks = 0;
  uint64_t evicted_chunks = 0;
  uint64_t requested_bytes = 0;

  bool operator==(const OutcomeRecord& other) const {
    return arrival_time == other.arrival_time && decision == other.decision &&
           hit_chunks == other.hit_chunks && filled_chunks == other.filled_chunks &&
           evicted_chunks == other.evicted_chunks && requested_bytes == other.requested_bytes;
  }
};

class ReplayStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(0.02);
    for (size_t i = 0; i < 2; ++i) {
      trace::WorkloadConfig workload;
      workload.profile = profiles[i];
      workload.duration_seconds = 3.0 * 86400.0;
      workload.seed = util::SplitSeed(11, i);
      workloads_.push_back(workload);
      traces_.push_back(trace::WorkloadGenerator(workload).Generate().trace);
    }
    config_.chunk_bytes = core::kDefaultChunkBytes;
    config_.disk_capacity_chunks = 512;
    config_.alpha_f2r = 2.0;

    pack_path_ = testing::TempDir() + "sim_replay_stream_test.vtrs";
    ASSERT_TRUE(trace::WriteTraceFile({&traces_[0], &traces_[1]}, pack_path_).ok());
    auto mapped = trace::MmapTrace::Open(pack_path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_.emplace(std::move(mapped.value()));

    exec::ThreadPoolOptions pool_options;
    pool_options.num_threads = 2;
    generator_pool_.emplace(pool_options);
  }

  void TearDown() override { std::remove(pack_path_.c_str()); }

  // A fresh stream over server `i` for the given producer. GeneratedStream
  // runs in pooled mode on the dedicated generator pool (never the fleet
  // pool), the shape bench_scale_sweep and FleetGoldenDigestTest use.
  std::unique_ptr<trace::RequestStream> MakeStream(Producer producer, size_t i) {
    if (producer == Producer::kGenerated) {
      trace::GeneratedStreamOptions options;
      options.generator_pool = &*generator_pool_;
      options.lookahead_windows = 2;
      return std::make_unique<trace::GeneratedStream>(workloads_[i], options);
    }
    return mapped_->ServerStream(i);
  }

  // The 4-shard fleet (2 servers x {xLRU, Cafe}) fed by `producer`.
  std::vector<FleetServer> MakeFleet(Producer producer) {
    const core::CacheKind kinds[] = {core::CacheKind::kXlru, core::CacheKind::kCafe};
    std::vector<FleetServer> servers;
    for (size_t i = 0; i < traces_.size(); ++i) {
      for (core::CacheKind kind : kinds) {
        FleetServer server{"server" + std::to_string(i), kind, config_, nullptr, {}};
        if (producer == Producer::kMaterialized) {
          server.trace = &traces_[i];
        } else {
          server.stream = [this, producer, i]() { return MakeStream(producer, i); };
        }
        servers.push_back(std::move(server));
      }
    }
    return servers;
  }

  // Single-cache replay of server 0 through `producer`, with optional
  // instruments; returns outcomes + result.
  std::pair<std::vector<OutcomeRecord>, ReplayResult> RunOne(Producer producer,
                                                             ReplayOptions options) {
    auto cache = core::MakeCache(core::CacheKind::kCafe, config_);
    std::vector<OutcomeRecord> outcomes;
    options.on_outcome = [&](const trace::Request& request, const core::RequestOutcome& outcome) {
      outcomes.push_back(OutcomeRecord{request.arrival_time, outcome.decision, outcome.hit_chunks,
                                       outcome.filled_chunks, outcome.evicted_chunks,
                                       outcome.requested_bytes});
    };
    ReplayResult result;
    if (producer == Producer::kMaterialized) {
      result = Replay(*cache, traces_[0], options);
    } else {
      auto stream = MakeStream(producer, 0);
      result = ReplayStream(*cache, *stream, options);
    }
    return {std::move(outcomes), std::move(result)};
  }

  std::vector<trace::WorkloadConfig> workloads_;
  std::vector<trace::Trace> traces_;
  core::CacheConfig config_;
  std::string pack_path_;
  std::optional<trace::MmapTrace> mapped_;
  std::optional<exec::ThreadPool> generator_pool_;
};

constexpr Producer kProducers[] = {Producer::kMaterialized, Producer::kGenerated, Producer::kMmap};

TEST_F(ReplayStreamTest, FleetDigestIdenticalAcrossProducersThreadsAndBatches) {
  uint64_t reference = 0;
  bool have_reference = false;
  for (Producer producer : kProducers) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{1}, size_t{16}}) {
        FleetOptions options;
        options.threads = threads;
        options.replay.batch_size = batch;
        const uint64_t digest = FleetDigest(RunFleet(MakeFleet(producer), options));
        if (!have_reference) {
          reference = digest;
          have_reference = true;
        }
        EXPECT_EQ(digest, reference)
            << Name(producer) << " threads " << threads << " batch " << batch;
      }
    }
  }
}

TEST_F(ReplayStreamTest, OutcomeStreamIdenticalAcrossProducers) {
  ReplayOptions options;
  options.batch_size = 7;  // never divides the trace length
  auto [reference_outcomes, reference_result] = RunOne(Producer::kMaterialized, options);
  ASSERT_GT(reference_outcomes.size(), 100u);
  for (Producer producer : {Producer::kGenerated, Producer::kMmap}) {
    auto [outcomes, result] = RunOne(producer, options);
    ASSERT_EQ(outcomes.size(), reference_outcomes.size()) << Name(producer);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i] == reference_outcomes[i]) << Name(producer) << " request " << i;
    }
    EXPECT_EQ(result.totals.served_bytes, reference_result.totals.served_bytes);
    EXPECT_EQ(result.steady.filled_bytes, reference_result.steady.filled_bytes);
    EXPECT_EQ(result.efficiency, reference_result.efficiency);
    ASSERT_EQ(result.series.size(), reference_result.series.size());
    for (size_t i = 0; i < result.series.size(); ++i) {
      EXPECT_EQ(result.series[i].bucket_start, reference_result.series[i].bucket_start);
      EXPECT_EQ(result.series[i].served_bytes, reference_result.series[i].served_bytes);
    }
  }
}

// Blanks the value of the one wall-clock-dependent gauge the replay exports
// (host-time throughput); everything else in the document is sim-time or
// counter state and must be byte-stable.
std::string ScrubWallClock(std::string jsonl) {
  const std::string key = "\"sim.replay.requests_per_sec\":";
  for (size_t at = jsonl.find(key); at != std::string::npos; at = jsonl.find(key, at + key.size())) {
    const size_t begin = at + key.size();
    size_t end = begin;
    while (end < jsonl.size() && jsonl[end] != ',' && jsonl[end] != '}') {
      ++end;
    }
    jsonl.replace(begin, end - begin, "0");
  }
  return jsonl;
}

TEST_F(ReplayStreamTest, SeriesJsonlBytesIdenticalAcrossProducers) {
  // The exported JSONL document -- window edges, counter deltas, quantiles --
  // must be byte-identical (modulo the host-time throughput gauge), not
  // merely numerically close.
  auto series_bytes = [&](Producer producer) {
    obs::MetricsRegistry registry;
    obs::TimeSeriesRecorder recorder(&registry);
    ReplayOptions options;
    options.metrics = &registry;
    options.series = &recorder;
    RunOne(producer, options);
    std::ostringstream out;
    recorder.WriteJsonl(out, obs::RunMetadata{});
    return ScrubWallClock(out.str());
  };
  const std::string reference = series_bytes(Producer::kMaterialized);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(series_bytes(Producer::kGenerated), reference);
  EXPECT_EQ(series_bytes(Producer::kMmap), reference);
}

TEST_F(ReplayStreamTest, FlightRingBytesIdenticalAcrossProducers) {
  auto ring_records = [&](Producer producer) {
    obs::FlightRecorder flight(128);
    ReplayOptions options;
    options.flight = &flight;
    options.flight_label = "stream-test";
    RunOne(producer, options);
    return flight.Snapshot();
  };
  const std::vector<obs::DecisionRecord> reference = ring_records(Producer::kMaterialized);
  ASSERT_FALSE(reference.empty());
  for (Producer producer : {Producer::kGenerated, Producer::kMmap}) {
    const std::vector<obs::DecisionRecord> got = ring_records(producer);
    ASSERT_EQ(got.size(), reference.size()) << Name(producer);
    EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                          reference.size() * sizeof(obs::DecisionRecord)),
              0)
        << Name(producer);
  }
}

TEST_F(ReplayStreamTest, FaultScheduleBitesIdenticallyMidStream) {
  // Degrade, cold-restart and outage boundaries land in the middle of pulled
  // spans; the stream path must cut batches at exactly the same requests.
  const double duration = traces_[0].duration;
  fault::FaultSchedule schedule;
  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDiskDegrade;
  degrade.start = duration * 0.21;
  degrade.end = duration * 0.48;
  degrade.capacity_factor = 0.5;
  schedule.Add(degrade);
  fault::FaultEvent restart;
  restart.kind = fault::FaultKind::kColdRestart;
  restart.start = duration * 0.63;
  restart.end = restart.start;
  schedule.Add(restart);
  fault::FaultEvent outage;
  outage.kind = fault::FaultKind::kEdgeOutage;
  outage.start = duration * 0.77;
  outage.end = duration * 0.81;
  schedule.Add(outage);
  ASSERT_TRUE(schedule.Validate().ok());

  ReplayOptions options;
  options.batch_size = 16;
  options.faults = &schedule;
  auto [reference_outcomes, reference_result] = RunOne(Producer::kMaterialized, options);
  ASSERT_EQ(reference_result.faults.cold_restarts, 1u);
  ASSERT_GT(reference_result.faults.unavailable_requests, 0u);
  for (Producer producer : {Producer::kGenerated, Producer::kMmap}) {
    auto [outcomes, result] = RunOne(producer, options);
    ASSERT_EQ(outcomes.size(), reference_outcomes.size()) << Name(producer);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i] == reference_outcomes[i]) << Name(producer) << " request " << i;
    }
    EXPECT_EQ(result.faults.cold_restarts, reference_result.faults.cold_restarts);
    EXPECT_EQ(result.faults.resize_events, reference_result.faults.resize_events);
    EXPECT_EQ(result.faults.unavailable_requests, reference_result.faults.unavailable_requests);
    EXPECT_EQ(result.availability, reference_result.availability);
  }
}

TEST_F(ReplayStreamTest, HierarchyStreamOverloadMatchesTraceOverload) {
  HierarchyConfig config;
  config.edge_config = config_;
  config.parent_config = config_;
  config.parent_config.disk_capacity_chunks = 2048;
  config.threads = 2;

  const HierarchyResult reference = RunHierarchy(traces_, config);
  std::vector<StreamFactory> factories;
  for (size_t i = 0; i < traces_.size(); ++i) {
    factories.push_back([this, i]() { return MakeStream(Producer::kGenerated, i); });
  }
  const HierarchyResult streamed = RunHierarchy(factories, config);

  ASSERT_EQ(streamed.edges.size(), reference.edges.size());
  for (size_t i = 0; i < reference.edges.size(); ++i) {
    EXPECT_EQ(streamed.edges[i].totals.served_bytes, reference.edges[i].totals.served_bytes);
    EXPECT_EQ(streamed.edges[i].steady.filled_bytes, reference.edges[i].steady.filled_bytes);
  }
  EXPECT_EQ(streamed.parent.totals.requests, reference.parent.totals.requests);
  EXPECT_EQ(streamed.parent.totals.served_bytes, reference.parent.totals.served_bytes);
  EXPECT_EQ(streamed.requested_bytes, reference.requested_bytes);
  EXPECT_EQ(streamed.edge_served_bytes, reference.edge_served_bytes);
  EXPECT_EQ(streamed.parent_served_bytes, reference.parent_served_bytes);
  EXPECT_EQ(streamed.origin_bytes, reference.origin_bytes);
  EXPECT_EQ(streamed.edge_hit_fraction, reference.edge_hit_fraction);
  EXPECT_EQ(streamed.cdn_hit_fraction, reference.cdn_hit_fraction);
  EXPECT_EQ(streamed.origin_cost, reference.origin_cost);
  ASSERT_EQ(streamed.outage_origin_series.size(), reference.outage_origin_series.size());
}

TEST_F(ReplayStreamTest, StreamingRefusesOfflineCaches) {
  // Psychic needs the whole trace up front (Prepare computes future
  // popularity); feeding it a stream must die loudly, not silently replay
  // with an unprepared oracle.
  auto cache = core::MakeCache(core::CacheKind::kPsychic, config_);
  auto stream = MakeStream(Producer::kMmap, 0);
  EXPECT_DEATH(ReplayStream(*cache, *stream), "full trace");
}

TEST_F(ReplayStreamTest, MaterializedReplayStillPreparesOfflineCaches) {
  // The trace overload keeps working for offline algorithms -- only the
  // streaming entry point refuses them.
  auto cache = core::MakeCache(core::CacheKind::kPsychic, config_);
  ReplayResult result = Replay(*cache, traces_[0]);
  EXPECT_GT(result.totals.requests, 0u);
}

}  // namespace
}  // namespace vcdn::sim
