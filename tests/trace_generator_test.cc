// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/workload_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "src/trace/server_profile.h"

namespace vcdn::trace {
namespace {

WorkloadConfig SmallConfig(uint64_t seed = 1) {
  WorkloadConfig config;
  config.profile = EuropeProfile(0.05);  // tiny for test speed
  config.profile.base_request_rate = 0.05;
  config.seed = seed;
  config.duration_seconds = 3.0 * 86400.0;
  return config;
}

TEST(WorkloadGeneratorTest, DeterministicForSeed) {
  WorkloadGenerator g1(SmallConfig(7));
  WorkloadGenerator g2(SmallConfig(7));
  GeneratedWorkload w1 = g1.Generate();
  GeneratedWorkload w2 = g2.Generate();
  ASSERT_EQ(w1.trace.requests.size(), w2.trace.requests.size());
  for (size_t i = 0; i < w1.trace.requests.size(); ++i) {
    EXPECT_EQ(w1.trace.requests[i].arrival_time, w2.trace.requests[i].arrival_time);
    EXPECT_EQ(w1.trace.requests[i].video, w2.trace.requests[i].video);
    EXPECT_EQ(w1.trace.requests[i].byte_begin, w2.trace.requests[i].byte_begin);
    EXPECT_EQ(w1.trace.requests[i].byte_end, w2.trace.requests[i].byte_end);
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsDiffer) {
  GeneratedWorkload w1 = WorkloadGenerator(SmallConfig(1)).Generate();
  GeneratedWorkload w2 = WorkloadGenerator(SmallConfig(2)).Generate();
  // Same scale but different request pattern.
  bool differ = w1.trace.requests.size() != w2.trace.requests.size();
  if (!differ) {
    for (size_t i = 0; i < w1.trace.requests.size(); ++i) {
      if (w1.trace.requests[i].video != w2.trace.requests[i].video) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(WorkloadGeneratorTest, TraceIsWellFormed) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  EXPECT_TRUE(w.trace.IsWellFormed());
  EXPECT_GT(w.trace.requests.size(), 100u);
  for (const Request& r : w.trace.requests) {
    ASSERT_LT(r.video, w.catalog.videos.size());
    const VideoMeta& v = w.catalog.Get(r.video);
    ASSERT_LE(r.byte_end, v.size_bytes - 1) << "range beyond file size";
    ASSERT_GE(r.arrival_time, v.birth_time) << "request before upload";
  }
}

TEST(WorkloadGeneratorTest, RequestRateMatchesProfile) {
  WorkloadConfig config = SmallConfig();
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  double expected = config.profile.base_request_rate * config.duration_seconds;
  double actual = static_cast<double>(w.trace.requests.size());
  // Thinning + weekly modulation keeps the mean within ~15%.
  EXPECT_NEAR(actual, expected, expected * 0.15);
}

TEST(WorkloadGeneratorTest, PopularityIsHeavyTailed) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  std::unordered_map<VideoId, uint64_t> hits;
  for (const Request& r : w.trace.requests) {
    ++hits[r.video];
  }
  std::vector<uint64_t> counts;
  counts.reserve(hits.size());
  for (const auto& [id, c] : hits) {
    counts.push_back(c);
  }
  std::sort(counts.rbegin(), counts.rend());
  ASSERT_GT(counts.size(), 50u);
  // Head concentration: top 10% of videos get far more than 10% of requests.
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  uint64_t head = 0;
  for (size_t i = 0; i < counts.size() / 10; ++i) {
    head += counts[i];
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.3);
}

TEST(WorkloadGeneratorTest, MostViewsStartAtZero) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig()).Generate();
  size_t at_zero = 0;
  for (const Request& r : w.trace.requests) {
    if (r.byte_begin == 0) {
      ++at_zero;
    }
  }
  double fraction = static_cast<double>(at_zero) / static_cast<double>(w.trace.requests.size());
  EXPECT_NEAR(fraction, 0.62, 0.05);
}

TEST(WorkloadGeneratorTest, DiurnalFactorPeaksInLocalEvening) {
  ServerProfile p = EuropeProfile();
  p.timezone_offset_hours = 0.0;
  // Peak at 20:00, trough at 08:00 local.
  double peak = WorkloadGenerator::DiurnalFactor(p, 20.0 * 3600.0);
  double trough = WorkloadGenerator::DiurnalFactor(p, 8.0 * 3600.0);
  EXPECT_GT(peak, 1.3);
  EXPECT_LT(trough, 0.7);
  EXPECT_GT(peak, trough);
}

TEST(WorkloadGeneratorTest, DiurnalFactorShiftsWithTimezone) {
  ServerProfile utc = EuropeProfile();
  utc.timezone_offset_hours = 0.0;
  ServerProfile plus8 = utc;
  plus8.timezone_offset_hours = 8.0;
  // 12:00 absolute = 20:00 local for +8: peak there.
  EXPECT_GT(WorkloadGenerator::DiurnalFactor(plus8, 12.0 * 3600.0),
            WorkloadGenerator::DiurnalFactor(utc, 12.0 * 3600.0));
}

TEST(WorkloadGeneratorTest, VideoWeightRampAndDecay) {
  WorkloadConfig config = SmallConfig();
  VideoMeta v;
  v.base_weight = 10.0;
  v.birth_time = 1000.0;
  v.video_class = VideoClass::kTransient;
  v.decay_tau = 86400.0;
  // Before birth: zero.
  EXPECT_EQ(WorkloadGenerator::VideoWeightAt(v, 0.0, config), 0.0);
  // During ramp: below base.
  double ramping =
      WorkloadGenerator::VideoWeightAt(v, 1000.0 + config.new_video_ramp_seconds / 2, config);
  EXPECT_GT(ramping, 0.0);
  EXPECT_LT(ramping, 10.0);
  // After one tau: decayed by ~1/e.
  double decayed = WorkloadGenerator::VideoWeightAt(v, 1000.0 + 86400.0, config);
  EXPECT_NEAR(decayed, 10.0 * std::exp(-1.0), 0.5);
  // Evergreen videos do not decay.
  v.video_class = VideoClass::kEvergreen;
  v.decay_tau = 0.0;
  EXPECT_NEAR(WorkloadGenerator::VideoWeightAt(v, 1000.0 + 10 * 86400.0, config), 10.0, 1e-9);
}

TEST(WorkloadGeneratorTest, CatalogChurnAddsVideos) {
  WorkloadConfig config = SmallConfig();
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  size_t new_videos = 0;
  for (const VideoMeta& v : w.catalog.videos) {
    if (v.birth_time > 0.0) {
      ++new_videos;
    }
  }
  double expected = config.profile.new_videos_per_day * config.duration_seconds / 86400.0;
  EXPECT_NEAR(static_cast<double>(new_videos), expected, expected * 0.5 + 10.0);
}

TEST(WorkloadGeneratorTest, RefreshIntervalChangesSamplingNotScale) {
  // A finer popularity-refresh cadence tracks churn more closely but must
  // not change the overall request volume materially.
  WorkloadConfig coarse = SmallConfig(4);
  coarse.popularity_refresh_seconds = 24.0 * 3600.0;
  WorkloadConfig fine = SmallConfig(4);
  fine.popularity_refresh_seconds = 1.0 * 3600.0;
  size_t coarse_count = WorkloadGenerator(coarse).Generate().trace.requests.size();
  size_t fine_count = WorkloadGenerator(fine).Generate().trace.requests.size();
  EXPECT_NEAR(static_cast<double>(coarse_count), static_cast<double>(fine_count),
              static_cast<double>(fine_count) * 0.1);
}

TEST(WorkloadGeneratorTest, WeightFloorPrunesDeadTransients) {
  // With a very aggressive floor, long-dead transient videos stop being
  // sampled entirely: every request's video must still carry real weight.
  WorkloadConfig config = SmallConfig(9);
  config.weight_floor_fraction = 0.5;  // drop anything below half base weight
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const Request& r : w.trace.requests) {
    const VideoMeta& v = w.catalog.Get(r.video);
    double weight = WorkloadGenerator::VideoWeightAt(v, r.arrival_time, config);
    // Sampled at most one refresh window before the weight dipped below the
    // floor; allow that slack.
    EXPECT_GT(weight, 0.0);
  }
}

TEST(WorkloadGeneratorTest, ViewsNeverExceedFileBounds) {
  GeneratedWorkload w = WorkloadGenerator(SmallConfig(12)).Generate();
  for (const Request& r : w.trace.requests) {
    const VideoMeta& v = w.catalog.Get(r.video);
    ASSERT_LE(r.byte_begin, r.byte_end);
    ASSERT_LT(r.byte_end, v.size_bytes);
  }
}

TEST(WorkloadGeneratorTest, SizesRespectProfileClamps) {
  WorkloadConfig config = SmallConfig(3);
  config.profile.min_video_bytes = 8ull << 20;
  config.profile.max_video_bytes = 64ull << 20;
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const VideoMeta& v : w.catalog.videos) {
    ASSERT_GE(v.size_bytes, config.profile.min_video_bytes);
    ASSERT_LE(v.size_bytes, config.profile.max_video_bytes);
  }
}

TEST(WorkloadGeneratorDeathTest, RejectsBadVideoSizeClamps) {
  // std::clamp with lo > hi is undefined, so construction refuses it.
  WorkloadConfig config = SmallConfig();
  config.profile.min_video_bytes = 64ull << 20;
  config.profile.max_video_bytes = 8ull << 20;
  EXPECT_DEATH(WorkloadGenerator{config}, "min_video_bytes <= profile.max_video_bytes");
  config.profile.min_video_bytes = 0;
  EXPECT_DEATH(WorkloadGenerator{config}, "0 < profile.min_video_bytes");
}

TEST(WorkloadGeneratorDeathTest, RejectsNonPositiveMeanViewFraction) {
  // Caught where the stream is built, not on the first request (which a
  // pooled GeneratedStream draws on a generator thread).
  WorkloadConfig config = SmallConfig();
  config.profile.mean_view_fraction = 0.0;
  EXPECT_DEATH(WindowedWorkload{config}, "mean_view_fraction > 0");
  config.profile.mean_view_fraction = -0.3;
  EXPECT_DEATH(WorkloadGenerator{config}, "mean_view_fraction > 0");
}

TEST(WorkloadGeneratorTest, EvergreenFractionZeroMakesAllTransient) {
  WorkloadConfig config = SmallConfig(6);
  config.profile.evergreen_fraction = 0.0;
  GeneratedWorkload w = WorkloadGenerator(config).Generate();
  for (const VideoMeta& v : w.catalog.videos) {
    ASSERT_EQ(v.video_class, VideoClass::kTransient);
    ASSERT_GT(v.decay_tau, 0.0);
  }
}

TEST(WorkloadGeneratorTest, SixProfilesHaveDistinctCharacter) {
  auto profiles = PaperServerProfiles(1.0);
  ASSERT_EQ(profiles.size(), 6u);
  std::vector<std::string> names;
  for (const auto& p : profiles) {
    names.push_back(p.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"Africa", "Asia", "Australia", "Europe",
                                             "NorthAmerica", "SouthAmerica"}));
  EXPECT_EQ(PaperServerNames(), names);
  EXPECT_EQ(PaperServerProfile("Asia", 0.5).catalog_size, PaperServerProfiles(0.5)[1].catalog_size);
  EXPECT_DEATH(PaperServerProfile("Mars"), "unknown paper server");
  // The paper's volume/diversity ordering: SouthAmerica busiest & most
  // diverse, Asia most concentrated.
  const ServerProfile& asia = profiles[1];
  const ServerProfile& europe = profiles[3];
  const ServerProfile& south_america = profiles[5];
  EXPECT_LT(asia.catalog_size, europe.catalog_size);
  EXPECT_GT(south_america.catalog_size, europe.catalog_size);
  EXPECT_GT(south_america.base_request_rate, europe.base_request_rate);
  // Smaller Pareto shape = heavier weight tail = demand concentrated on few
  // hot videos (Asia); larger = flatter/more diverse (South America).
  EXPECT_LT(asia.popularity_shape, south_america.popularity_shape);
}

}  // namespace
}  // namespace vcdn::trace
