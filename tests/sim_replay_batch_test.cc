// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Bit-identity contract of batched admission (sim::ReplayOptions::batch_size,
// core::CacheAlgorithm::HandleRequestBatch): for ANY batch size, a replay is
// indistinguishable from the unbatched batch_size=1 reference -- per-request
// outcomes in arrival order, replay totals and series, fleet digests, obs
// counter values, and fault accounting, including Resize / DropContents
// boundaries that land in the middle of a would-be batch.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace vcdn::sim {
namespace {

// The batch sizes under test: unbatched reference, a tiny batch, two odd
// sizes that never divide the trace length, and the replay default.
const size_t kBatchSizes[] = {1, 2, 7, 16, 33};

// One compressed observable per request; a replay is summarized as the exact
// sequence of these.
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
}

// A small fig7-shaped fleet: all six paper server profiles, scaled down so
// the Debug/ASan lanes stay fast, with per-server decorrelated seeds.
class ReplayBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(0.02);
    traces_.reserve(profiles.size());
    for (size_t i = 0; i < profiles.size(); ++i) {
      trace::WorkloadConfig workload;
      workload.profile = profiles[i];
      workload.duration_seconds = 4.0 * 86400.0;
      workload.seed = util::SplitSeed(9, i);
      traces_.push_back(trace::WorkloadGenerator(workload).Generate().trace);
    }
    config_.chunk_bytes = core::kDefaultChunkBytes;
    config_.disk_capacity_chunks = 512;
    config_.alpha_f2r = 2.0;
  }

  // Replays `kind` on trace `t` at the given batch size, returning the full
  // outcome stream and the replay result.
  std::pair<std::vector<OutcomeRecord>, ReplayResult> Run(
      core::CacheKind kind, size_t trace_index, size_t batch_size,
      const fault::FaultSchedule* faults = nullptr, obs::MetricsRegistry* metrics = nullptr) {
    auto cache = core::MakeCache(kind, config_);
    ReplayOptions options;
    options.batch_size = batch_size;
    options.faults = faults;
    options.metrics = metrics;
    std::vector<OutcomeRecord> outcomes;
    outcomes.reserve(traces_[trace_index].requests.size());
    options.on_outcome = [&](const trace::Request& request,
                             const core::RequestOutcome& outcome) {
      outcomes.push_back(OutcomeRecord{request.arrival_time, outcome.decision,
                                       outcome.hit_chunks, outcome.filled_chunks,
                                       outcome.evicted_chunks, outcome.requested_bytes});
    };
    ReplayResult result = Replay(*cache, traces_[trace_index], options);
    return {std::move(outcomes), std::move(result)};
  }

  std::vector<trace::Trace> traces_;
  core::CacheConfig config_;
};

TEST_F(ReplayBatchTest, OutcomeStreamIsIdenticalAtEveryBatchSize) {
  for (core::CacheKind kind : {core::CacheKind::kCafe, core::CacheKind::kXlru}) {
    auto [reference_outcomes, reference_result] = Run(kind, 3 /* Europe */, 1);
    ASSERT_GT(reference_outcomes.size(), 1000u);
    for (size_t batch : kBatchSizes) {
      if (batch == 1) {
        continue;
      }
      auto [outcomes, result] = Run(kind, 3, batch);
      ASSERT_EQ(outcomes.size(), reference_outcomes.size()) << "batch " << batch;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i] == reference_outcomes[i])
            << "kind " << static_cast<int>(kind) << " batch " << batch << " request " << i;
      }
      ExpectTotalsEq(result.totals, reference_result.totals);
      ExpectTotalsEq(result.steady, reference_result.steady);
      ASSERT_EQ(result.series.size(), reference_result.series.size());
    }
  }
}

TEST_F(ReplayBatchTest, FleetDigestIsIdenticalAtEveryBatchSize) {
  std::vector<FleetServer> servers;
  const core::CacheKind kinds[] = {core::CacheKind::kXlru, core::CacheKind::kCafe};
  for (size_t i = 0; i < traces_.size(); ++i) {
    servers.push_back(
        FleetServer{"server" + std::to_string(i), kinds[i % 2], config_, &traces_[i], {}});
  }
  uint64_t reference_digest = 0;
  for (size_t batch : kBatchSizes) {
    FleetOptions options;
    options.threads = batch % 2 == 0 ? 3 : 1;  // batching x threading cross-check
    options.replay.batch_size = batch;
    uint64_t digest = FleetDigest(RunFleet(servers, options));
    if (batch == 1) {
      reference_digest = digest;
    } else {
      EXPECT_EQ(digest, reference_digest) << "batch " << batch;
    }
  }
}

TEST_F(ReplayBatchTest, ObsCountersAreIdenticalAtEveryBatchSize) {
  // Deferring RecordOutcome to the end of a batch must not change any counter
  // value at snapshot points: batches drain before every bucket flush.
  auto filtered = [](const obs::MetricsRegistry& registry) {
    auto counters = registry.CounterSamples();
    auto gauges = registry.GaugeSamples();
    decltype(gauges) kept;
    for (const auto& sample : gauges) {
      if (sample.first == "sim.replay.requests_per_sec") {
        continue;  // wall-clock dependent by design
      }
      kept.push_back(sample);
    }
    return std::make_pair(counters, kept);
  };
  obs::MetricsRegistry reference_registry;
  Run(core::CacheKind::kCafe, 3, 1, nullptr, &reference_registry);
  auto reference = filtered(reference_registry);
  EXPECT_FALSE(reference.first.empty());
  for (size_t batch : {size_t{7}, size_t{33}}) {
    obs::MetricsRegistry registry;
    Run(core::CacheKind::kCafe, 3, batch, nullptr, &registry);
    auto got = filtered(registry);
    EXPECT_EQ(got.first, reference.first) << "batch " << batch;
    EXPECT_EQ(got.second, reference.second) << "batch " << batch;
  }
}

TEST_F(ReplayBatchTest, FaultBoundariesLandingMidBatchStayIdentical) {
  // Resize (degrade + restore), cold restart and an outage window placed at
  // arbitrary times: with batch sizes like 7 and 33 these boundaries land in
  // the middle of an accumulating batch, forcing the replay to drain early.
  const double duration = traces_[3].duration;
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

  auto [reference_outcomes, reference_result] = Run(core::CacheKind::kCafe, 3, 1, &schedule);
  // The schedule must actually bite for this test to mean anything.
  ASSERT_EQ(reference_result.faults.cold_restarts, 1u);
  ASSERT_GE(reference_result.faults.resize_events, 2u);
  ASSERT_GT(reference_result.faults.unavailable_requests, 0u);

  for (size_t batch : kBatchSizes) {
    if (batch == 1) {
      continue;
    }
    auto [outcomes, result] = Run(core::CacheKind::kCafe, 3, batch, &schedule);
    ASSERT_EQ(outcomes.size(), reference_outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i] == reference_outcomes[i]) << "batch " << batch << " request " << i;
    }
    ExpectTotalsEq(result.totals, reference_result.totals);
    EXPECT_EQ(result.faults.cold_restarts, reference_result.faults.cold_restarts);
    EXPECT_EQ(result.faults.resize_events, reference_result.faults.resize_events);
    EXPECT_EQ(result.faults.resize_evicted_chunks, reference_result.faults.resize_evicted_chunks);
    EXPECT_EQ(result.faults.dropped_chunks, reference_result.faults.dropped_chunks);
    EXPECT_EQ(result.faults.unavailable_requests, reference_result.faults.unavailable_requests);
    EXPECT_EQ(result.faults.unavailable_bytes, reference_result.faults.unavailable_bytes);
    EXPECT_EQ(result.availability, reference_result.availability);
  }
}

TEST_F(ReplayBatchTest, BatchSizeZeroFallsBackToUnbatched) {
  auto [reference_outcomes, reference_result] = Run(core::CacheKind::kCafe, 0, 1);
  auto [outcomes, result] = Run(core::CacheKind::kCafe, 0, 0);
  ASSERT_EQ(outcomes.size(), reference_outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i] == reference_outcomes[i]) << "request " << i;
  }
  ExpectTotalsEq(result.totals, reference_result.totals);
}

}  // namespace
}  // namespace vcdn::sim
