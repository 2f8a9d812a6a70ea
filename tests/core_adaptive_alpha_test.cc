// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/adaptive_alpha.h"

#include <gtest/gtest.h>

#include "src/core/cafe_cache.h"
#include "src/core/xlru_cache.h"
#include "src/sim/replay.h"
#include "tests/cache_test_util.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkRequest;
using ::vcdn::testing::SmallConfig;

TEST(SetAlphaTest, UpdatesCostModel) {
  XlruCache cache(SmallConfig(8, 1.0));
  EXPECT_DOUBLE_EQ(cache.cost_model().alpha_f2r(), 1.0);
  cache.SetAlphaF2r(2.0);
  EXPECT_DOUBLE_EQ(cache.cost_model().alpha_f2r(), 2.0);
  EXPECT_DOUBLE_EQ(cache.config().alpha_f2r, 2.0);
  EXPECT_NEAR(cache.cost_model().fill_cost(), 4.0 / 3.0, 1e-12);
}

TEST(AdaptiveAlphaTest, WrapsInnerCacheTransparently) {
  AdaptiveAlphaOptions options;
  auto inner = std::make_unique<CafeCache>(SmallConfig(100, 2.0));
  AdaptiveAlphaCache cache(std::move(inner), options);
  EXPECT_EQ(cache.name(), "Adaptive(Cafe)");
  cache.HandleRequest(ChunkRequest(1.0, 7, 0, 3));
  auto outcome = cache.HandleRequest(ChunkRequest(2.0, 7, 0, 3));
  EXPECT_EQ(outcome.decision, Decision::kServe);
  EXPECT_EQ(cache.used_chunks(), 4u);
  EXPECT_TRUE(cache.ContainsChunk(ChunkId{7, 0}));
}

TEST(AdaptiveAlphaTest, ClampsToRange) {
  AdaptiveAlphaOptions options;
  options.min_alpha = 1.0;
  options.max_alpha = 4.0;
  auto inner = std::make_unique<CafeCache>(SmallConfig(100, 2.0));
  AdaptiveAlphaCache cache(std::move(inner), options);
  cache.SetAlphaF2r(100.0);
  EXPECT_DOUBLE_EQ(cache.current_alpha(), 4.0);
  cache.SetAlphaF2r(0.01);
  EXPECT_DOUBLE_EQ(cache.current_alpha(), 1.0);
}

TEST(AdaptiveAlphaTest, RaisesAlphaUnderHeavyIngress) {
  // A churny workload (every video seen twice, then replaced) forces high
  // ingress; the controller must push alpha up toward max.
  AdaptiveAlphaOptions options;
  options.target_ingress_fraction = 0.01;  // nearly no ingress budget
  options.adjust_interval_seconds = 50.0;
  auto inner = std::make_unique<CafeCache>(SmallConfig(16, 1.0));
  AdaptiveAlphaCache cache(std::move(inner), options);
  double t = 0.0;
  trace::VideoId v = 1;
  double alpha_sum = 0.0;
  int alpha_samples = 0;
  for (int i = 0; i < 3000; ++i) {
    t += 1.0;
    // Each video requested twice in a row (second request fills), then
    // abandoned: ingress-heavy and hit-poor.
    cache.HandleRequest(ChunkRequest(t, v, 0, 1));
    cache.HandleRequest(ChunkRequest(t + 0.5, v, 0, 1));
    ++v;
    if (i > 1500) {
      alpha_sum += cache.current_alpha();
      ++alpha_samples;
    }
  }
  // The controller cannot actually meet a 1% budget on this workload (every
  // serve implies a fill), so it oscillates around the admit/reject boundary
  // -- but it must settle well above the initial alpha = 1 and keep
  // adjusting.
  EXPECT_GT(alpha_sum / alpha_samples, 1.2);
  EXPECT_GT(cache.adjustments(), 5u);
}

TEST(AdaptiveAlphaTest, LowersAlphaWhenIngressBelowBudget) {
  // A perfectly cacheable workload has almost no steady-state ingress; with
  // a generous budget the controller drifts alpha down toward min.
  AdaptiveAlphaOptions options;
  options.target_ingress_fraction = 0.5;
  options.adjust_interval_seconds = 50.0;
  options.min_alpha = 0.5;
  auto inner = std::make_unique<CafeCache>(SmallConfig(64, 4.0));
  AdaptiveAlphaCache cache(std::move(inner), options);
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += 1.0;
    cache.HandleRequest(ChunkRequest(t, static_cast<trace::VideoId>(1 + i % 4), 0, 3));
  }
  EXPECT_LT(cache.current_alpha(), 1.0);
}

TEST(AdaptiveAlphaTest, TracksIngressBudgetEndToEnd) {
  // On a mixed workload, the controller should keep the steady-state ingress
  // fraction within a loose factor of the target.
  AdaptiveAlphaOptions options;
  options.target_ingress_fraction = 0.10;
  options.adjust_interval_seconds = 200.0;
  options.min_alpha = 0.5;
  options.max_alpha = 8.0;
  auto inner = std::make_unique<CafeCache>(SmallConfig(32, 1.0));
  AdaptiveAlphaCache cache(std::move(inner), options);

  trace::Trace trace;
  double t = 0.0;
  for (int round = 0; round < 3000; ++round) {
    t += 1.0;
    // Stable popular set + a churning tail whose videos recur a few times
    // (so admitting them costs real ingress, and alpha controls how much).
    trace.requests.push_back(ChunkRequest(t, static_cast<trace::VideoId>(1 + round % 6), 0, 2));
    trace.requests.push_back(
        ChunkRequest(t + 0.5, static_cast<trace::VideoId>(1000 + round / 4), 0, 2));
  }
  trace.duration = t + 1.0;
  sim::ReplayResult result = sim::Replay(cache, trace);
  EXPECT_GT(result.ingress_fraction, 0.02);
  EXPECT_LT(result.ingress_fraction, 0.30);
}

}  // namespace
}  // namespace vcdn::core
