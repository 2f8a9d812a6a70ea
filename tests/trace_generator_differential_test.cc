// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// trace::WindowedWorkload against its oracle (tests/oracles/
// reference_workload.h): the same catalog and, window for window, the same
// 32-byte request records, over the six paper profiles at two scales and
// three seeds, and over configs at the edges of the generator's shortcuts
// (the live catalog set, the reused alias table, the per-stream passes and
// the thinning bounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"
#include "tests/oracles/reference_workload.h"

namespace vcdn::trace {
namespace {

static_assert(sizeof(Request) == 32, "records are compared as raw 32-byte images");

constexpr double kMonthSeconds = 30.0 * 86400.0;

void ExpectSameCatalog(const Catalog& library, const Catalog& oracle) {
  ASSERT_EQ(library.videos.size(), oracle.videos.size());
  for (size_t i = 0; i < library.videos.size(); ++i) {
    const VideoMeta& a = library.videos[i];
    const VideoMeta& b = oracle.videos[i];
    ASSERT_EQ(a.id, b.id) << "video " << i;
    ASSERT_EQ(a.size_bytes, b.size_bytes) << "video " << i;
    ASSERT_EQ(a.video_class, b.video_class) << "video " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.birth_time), std::bit_cast<uint64_t>(b.birth_time))
        << "video " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.base_weight), std::bit_cast<uint64_t>(b.base_weight))
        << "video " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.decay_tau), std::bit_cast<uint64_t>(b.decay_tau))
        << "video " << i;
  }
}

// Runs both engines to exhaustion; returns the number of requests compared.
size_t ExpectSameWorkload(const WorkloadConfig& config) {
  WindowedWorkload library(config);
  ReferenceWorkload oracle(config);
  ExpectSameCatalog(library.catalog(), oracle.catalog());

  std::vector<Request> a;
  std::vector<Request> b;
  size_t requests = 0;
  for (size_t window = 0;; ++window) {
    a.clear();
    b.clear();
    const bool more = library.NextWindow(&a);
    EXPECT_EQ(more, oracle.NextWindow(&b)) << "window " << window;
    if (!more) {
      break;
    }
    EXPECT_EQ(a.size(), b.size()) << "window " << window;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(Request)) != 0) {
        ADD_FAILURE() << "window " << window << " request " << i << ": library (t="
                      << a[i].arrival_time << " video=" << a[i].video << " ["
                      << a[i].byte_begin << ", " << a[i].byte_end << "]) vs oracle (t="
                      << b[i].arrival_time << " video=" << b[i].video << " ["
                      << b[i].byte_begin << ", " << b[i].byte_end << "])";
        return requests;
      }
    }
    if (a.size() != b.size()) {
      return requests;
    }
    requests += a.size();
  }
  return requests;
}

class PaperProfileTest : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(PaperProfileTest, MonthMatchesOracle) {
  const auto [scale, seed] = GetParam();
  const std::vector<ServerProfile> profiles = PaperServerProfiles(scale);
  for (size_t i = 0; i < profiles.size(); ++i) {
    SCOPED_TRACE(profiles[i].name);
    WorkloadConfig config;
    config.profile = profiles[i];
    config.seed = util::SplitSeed(seed, i);
    config.duration_seconds = kMonthSeconds;
    EXPECT_GT(ExpectSameWorkload(config), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ScalesAndSeeds, PaperProfileTest,
                         ::testing::Combine(::testing::Values(0.05, 0.25),
                                            ::testing::Values(1u, 2u, 3u)));

struct EdgeCase {
  std::string name;
  std::function<void(WorkloadConfig&)> edit;
};

class EdgeConfigTest : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(EdgeConfigTest, MonthMatchesOracle) {
  WorkloadConfig config;
  config.profile = EuropeProfile(0.05);
  config.seed = 5;
  config.duration_seconds = kMonthSeconds;
  GetParam().edit(config);
  ExpectSameWorkload(config);
}

INSTANTIATE_TEST_SUITE_P(
    Edges, EdgeConfigTest,
    ::testing::Values(
        EdgeCase{"PartialLastWindow",
                 [](WorkloadConfig& c) { c.duration_seconds = kMonthSeconds - 5000.0; }},
        EdgeCase{"OneWindowMonth",
                 [](WorkloadConfig& c) { c.popularity_refresh_seconds = kMonthSeconds; }},
        // Windows shorter than a thinning slice: slices straddle window edges.
        EdgeCase{"Refresh900s", [](WorkloadConfig& c) { c.popularity_refresh_seconds = 900.0; }},
        EdgeCase{"FlatDiurnal", [](WorkloadConfig& c) { c.profile.diurnal_amplitude = 0.0; }},
        // Troughs fall below DiurnalFactor's floor.
        EdgeCase{"DeepDiurnal", [](WorkloadConfig& c) { c.profile.diurnal_amplitude = 0.95; }},
        EdgeCase{"NoUploads", [](WorkloadConfig& c) { c.profile.new_videos_per_day = 0.0; }},
        EdgeCase{"NoRamp", [](WorkloadConfig& c) { c.new_video_ramp_seconds = 0.0; }},
        EdgeCase{"AllTransient", [](WorkloadConfig& c) { c.profile.evergreen_fraction = 0.0; }},
        EdgeCase{"AllEvergreen", [](WorkloadConfig& c) { c.profile.evergreen_fraction = 1.0; }},
        EdgeCase{"NoWeightFloor", [](WorkloadConfig& c) { c.weight_floor_fraction = 0.0; }},
        EdgeCase{"NegativeTimezone",
                 [](WorkloadConfig& c) { c.profile.timezone_offset_hours = -9.5; }}),
    [](const ::testing::TestParamInfo<EdgeCase>& edge) { return edge.param.name; });

}  // namespace
}  // namespace vcdn::trace
