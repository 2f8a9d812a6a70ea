// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/optimal_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "src/core/baseline_caches.h"
#include "src/core/cache_factory.h"
#include "src/core/psychic_cache.h"
#include "src/sim/replay.h"
#include "src/util/rng.h"
#include "tests/cache_test_util.h"
#include "tests/oracles/paper_exact_lp.h"

namespace vcdn::core {
namespace {

using ::vcdn::testing::ChunkReq;
using ::vcdn::testing::MakeTrace;
using ::vcdn::testing::SmallConfig;

// The library's interval LP, or the paper's Eqs. (10)-(12) verbatim (the
// oracle in tests/oracles/).
enum class Formulation { kPaperExact, kIntervalReduced };

OptimalBound Solve(const trace::Trace& trace, uint64_t capacity, double alpha,
                   Formulation formulation, bool paper_half_cost = false) {
  OptimalOptions options;
  options.use_paper_half_cost = paper_half_cost;
  if (formulation == Formulation::kPaperExact) {
    return SolvePaperExact(trace, SmallConfig(capacity, alpha), options);
  }
  OptimalCacheSolver solver(SmallConfig(capacity, alpha), options);
  return solver.SolveBound(trace);
}

TEST(OptimalTest, SingleHotChunkCostsOneFill) {
  // One chunk requested 3 times, alpha = 1: optimal = fill once. Full-cost
  // accounting charges C_F = 1; the paper's |dx|/2 accounting charges 1/2
  // because the chunk never leaves the cache.
  trace::Trace t = MakeTrace({{1.0, 1, 0, 0}, {2.0, 1, 0, 0}, {3.0, 1, 0, 0}});
  for (auto form : {Formulation::kPaperExact, Formulation::kIntervalReduced}) {
    OptimalBound bound = Solve(t, 4, 1.0, form);
    ASSERT_EQ(bound.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(bound.total_cost, 1.0, 1e-6);
    EXPECT_EQ(bound.total_requested_chunks, 3u);
    EXPECT_NEAR(bound.efficiency_bound, 1.0 - 1.0 / 3.0, 1e-6);

    OptimalBound half = Solve(t, 4, 1.0, form, /*paper_half_cost=*/true);
    ASSERT_EQ(half.status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(half.total_cost, 0.5, 1e-6);
  }
}

TEST(OptimalTest, OneShotChunksUnderBothAccountings) {
  // Three distinct one-shot chunks at alpha = 1 (C_F = C_R = 1): full-cost
  // accounting is indifferent (cost 3 either way); the paper's half-cost
  // accounting prefers fill-and-keep at 1/2 each.
  trace::Trace t = MakeTrace({{1.0, 1, 0, 0}, {2.0, 2, 0, 0}, {3.0, 3, 0, 0}});
  OptimalBound full = Solve(t, 4, 1.0, Formulation::kPaperExact);
  ASSERT_EQ(full.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(full.total_cost, 3.0, 1e-6);
  OptimalBound half = Solve(t, 4, 1.0, Formulation::kPaperExact, true);
  ASSERT_EQ(half.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(half.total_cost, 1.5, 1e-6);
  // The half-cost bound is always the looser (smaller) one.
  EXPECT_LE(half.total_cost, full.total_cost + 1e-9);
}

TEST(OptimalTest, CapacityForcesMisses) {
  // Two chunks strictly alternating, capacity 1: at most one can be kept, so
  // every request to the other costs.
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + i % 2), 0, 0});
  }
  trace::Trace t = MakeTrace(reqs);
  OptimalBound tight = Solve(t, 1, 1.0, Formulation::kIntervalReduced);
  OptimalBound roomy = Solve(t, 2, 1.0, Formulation::kIntervalReduced);
  ASSERT_EQ(tight.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(roomy.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(tight.total_cost, roomy.total_cost + 1.0);
  // With room for both, cost is just the two initial fills.
  EXPECT_NEAR(roomy.total_cost, 2.0, 1e-6);
}

TEST(OptimalTest, FormulationsAgreeOnRandomInstances) {
  util::Pcg32 rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<ChunkReq> reqs;
    int steps = 8 + static_cast<int>(rng.NextBounded(8));
    for (int i = 0; i < steps; ++i) {
      reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + rng.NextBounded(4)),
                      0, rng.NextBounded(2)});
    }
    trace::Trace t = MakeTrace(reqs);
    uint64_t capacity = 1 + rng.NextBounded(4);
    double alpha = (trial % 2 == 0) ? 1.0 : 2.0;
    for (bool half_cost : {false, true}) {
      OptimalBound paper = Solve(t, capacity, alpha, Formulation::kPaperExact, half_cost);
      OptimalBound interval =
          Solve(t, capacity, alpha, Formulation::kIntervalReduced, half_cost);
      ASSERT_EQ(paper.status, lp::SolveStatus::kOptimal) << "trial " << trial;
      ASSERT_EQ(interval.status, lp::SolveStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(paper.total_cost, interval.total_cost, 1e-5)
          << "trial " << trial << " capacity=" << capacity << " alpha=" << alpha
          << " half_cost=" << half_cost;
    }
  }
}

TEST(OptimalTest, LowerBoundsEveryRealAlgorithm) {
  // The LP bound must dominate (in chunk-efficiency) whatever any actual
  // cache achieves on the same sequence.
  util::Pcg32 rng(57);
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 120; ++i) {
    // Zipf-ish: small video ids much more likely.
    trace::VideoId v = 1 + std::min<uint64_t>(rng.NextBounded(10), rng.NextBounded(10));
    reqs.push_back({static_cast<double>(i), v, 0, rng.NextBounded(3)});
  }
  trace::Trace t = MakeTrace(reqs);
  const uint64_t capacity = 8;
  for (double alpha : {1.0, 2.0}) {
    OptimalBound bound = Solve(t, capacity, alpha, Formulation::kIntervalReduced);
    ASSERT_EQ(bound.status, lp::SolveStatus::kOptimal);
    sim::ReplayOptions options;
    options.measurement_start_fraction = 0.0;
    for (auto kind : {CacheKind::kXlru, CacheKind::kCafe, CacheKind::kPsychic,
                      CacheKind::kBelady, CacheKind::kFillLru}) {
      auto cache = MakeCache(kind, SmallConfig(capacity, alpha));
      sim::ReplayResult result = sim::Replay(*cache, t, options);
      double algo_efficiency = result.totals.ChunkEfficiency(cache->cost_model());
      EXPECT_GE(bound.efficiency_bound, algo_efficiency - 1e-6)
          << CacheKindName(kind) << " alpha=" << alpha;
    }
  }
}

TEST(OptimalTest, AlphaShiftsTheBound) {
  // A workload of one-shot chunks: with expensive fills the bound approaches
  // pure redirection cost; with cheap fills it drops.
  std::vector<ChunkReq> reqs;
  for (int i = 0; i < 12; ++i) {
    reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(i + 1), 0, 0});
  }
  trace::Trace t = MakeTrace(reqs);
  OptimalBound cheap_fill = Solve(t, 16, 0.5, Formulation::kIntervalReduced);
  OptimalBound dear_fill = Solve(t, 16, 4.0, Formulation::kIntervalReduced);
  ASSERT_EQ(cheap_fill.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(dear_fill.status, lp::SolveStatus::kOptimal);
  // alpha=0.5: filling costs C_F = 2/3 < C_R = 4/3 -> serve everything.
  EXPECT_NEAR(cheap_fill.total_cost, 12.0 * 2.0 / 3.0, 1e-5);
  // alpha=4: C_R = 0.4 < C_F = 1.6 -> redirect everything.
  EXPECT_NEAR(dear_fill.total_cost, 12.0 * 0.4, 1e-5);
}

// Exhaustive offline-optimum oracle for tiny instances: DFS over
// serve/redirect decisions and all eviction subsets, memoized on
// (request index, cached set). Costs use full-fill accounting
// (C_F per filled chunk, C_R per redirected requested chunk).
class BruteForceOptimal {
 public:
  BruteForceOptimal(const trace::Trace& trace, const CacheConfig& config)
      : trace_(trace), config_(config), cost_(config.alpha_f2r) {}

  double MinCost() { return Dfs(0, {}); }

 private:
  using ChunkSet = std::set<ChunkId>;

  std::string Key(size_t index, const ChunkSet& cached) const {
    std::string key = std::to_string(index) + "|";
    for (const ChunkId& c : cached) {
      key += std::to_string(c.video) + ":" + std::to_string(c.index) + ",";
    }
    return key;
  }

  double Dfs(size_t index, ChunkSet cached) {
    if (index == trace_.requests.size()) {
      return 0.0;
    }
    std::string memo_key = Key(index, cached);
    auto it = memo_.find(memo_key);
    if (it != memo_.end()) {
      return it->second;
    }

    const trace::Request& r = trace_.requests[index];
    ChunkRange range = ToChunkRange(r, config_.chunk_bytes);
    std::vector<ChunkId> wanted;
    for (uint32_t c = range.first; c <= range.last; ++c) {
      wanted.push_back(ChunkId{r.video, c});
    }

    // Option 1: redirect.
    double best = cost_.redirect_cost() * static_cast<double>(wanted.size()) +
                  Dfs(index + 1, cached);

    // Option 2: serve, trying every eviction subset of the right size.
    std::vector<ChunkId> missing;
    for (const ChunkId& c : wanted) {
      if (cached.count(c) == 0) {
        missing.push_back(c);
      }
    }
    if (wanted.size() <= config_.disk_capacity_chunks) {
      ChunkSet with_fill = cached;
      for (const ChunkId& c : missing) {
        with_fill.insert(c);
      }
      size_t overflow = with_fill.size() > config_.disk_capacity_chunks
                            ? with_fill.size() - config_.disk_capacity_chunks
                            : 0;
      std::vector<ChunkId> evictable;
      for (const ChunkId& c : cached) {
        if (std::find(wanted.begin(), wanted.end(), c) == wanted.end()) {
          evictable.push_back(c);
        }
      }
      double fill_cost = cost_.fill_cost() * static_cast<double>(missing.size());
      if (overflow == 0) {
        best = std::min(best, fill_cost + Dfs(index + 1, with_fill));
      } else if (evictable.size() >= overflow) {
        // Enumerate eviction subsets via bitmask (tiny instances only).
        VCDN_CHECK(evictable.size() <= 16);
        for (uint32_t mask = 0; mask < (1u << evictable.size()); ++mask) {
          if (static_cast<size_t>(__builtin_popcount(mask)) != overflow) {
            continue;
          }
          ChunkSet next = with_fill;
          for (size_t k = 0; k < evictable.size(); ++k) {
            if (mask & (1u << k)) {
              next.erase(evictable[k]);
            }
          }
          best = std::min(best, fill_cost + Dfs(index + 1, std::move(next)));
        }
      }
    }
    memo_[memo_key] = best;
    return best;
  }

  const trace::Trace& trace_;
  CacheConfig config_;
  CostModel cost_;
  std::unordered_map<std::string, double> memo_;
};

TEST(OptimalTest, ExactIpMatchesBruteForce) {
  util::Pcg32 rng(83);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<ChunkReq> reqs;
    int steps = 6 + static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < steps; ++i) {
      reqs.push_back({static_cast<double>(i), static_cast<trace::VideoId>(1 + rng.NextBounded(3)),
                      0, rng.NextBounded(2)});
    }
    trace::Trace t = MakeTrace(reqs);
    uint64_t capacity = 2 + rng.NextBounded(2);
    double alpha = (trial % 2 == 0) ? 1.0 : 2.0;

    CacheConfig config = SmallConfig(capacity, alpha);
    OptimalCacheSolver solver(config, OptimalOptions{});
    OptimalExactResult exact = solver.SolveExact(t);
    ASSERT_EQ(exact.status, lp::SolveStatus::kOptimal) << "trial " << trial;

    double brute = BruteForceOptimal(t, config).MinCost();
    EXPECT_NEAR(exact.total_cost, brute, 1e-5)
        << "trial " << trial << " capacity=" << capacity << " alpha=" << alpha;
    // And the LP relaxation cannot exceed the exact optimum.
    OptimalBound bound = Solve(t, capacity, alpha, Formulation::kIntervalReduced);
    EXPECT_LE(bound.total_cost, exact.total_cost + 1e-6);
    EXPECT_LE(exact.root_relaxation_cost, exact.total_cost + 1e-6);
  }
}

TEST(OptimalTest, ExactIpLowerBoundsAlgorithms) {
  std::vector<ChunkReq> reqs;
  util::Pcg32 rng(19);
  for (int i = 0; i < 30; ++i) {
    reqs.push_back({static_cast<double>(i),
                    static_cast<trace::VideoId>(1 + std::min(rng.NextBounded(4), rng.NextBounded(4))),
                    0, rng.NextBounded(2)});
  }
  trace::Trace t = MakeTrace(reqs);
  CacheConfig config = SmallConfig(4, 2.0);
  OptimalCacheSolver solver(config, OptimalOptions{});
  OptimalExactResult exact = solver.SolveExact(t);
  ASSERT_EQ(exact.status, lp::SolveStatus::kOptimal);
  sim::ReplayOptions options;
  options.measurement_start_fraction = 0.0;
  for (auto kind : {CacheKind::kXlru, CacheKind::kCafe, CacheKind::kPsychic, CacheKind::kBelady}) {
    auto cache = MakeCache(kind, config);
    sim::ReplayResult result = sim::Replay(*cache, t, options);
    double algo_cost =
        cache->cost_model().fill_cost() * static_cast<double>(result.totals.filled_chunks) +
        cache->cost_model().redirect_cost() * static_cast<double>(result.totals.redirected_chunks);
    EXPECT_LE(exact.total_cost, algo_cost + 1e-6) << CacheKindName(kind);
  }
}

TEST(OptimalTest, EmptyTrace) {
  trace::Trace t;
  t.duration = 10.0;
  OptimalBound bound = Solve(t, 4, 1.0, Formulation::kIntervalReduced);
  EXPECT_EQ(bound.total_requested_chunks, 0u);
  EXPECT_NEAR(bound.total_cost, 0.0, 1e-9);
}

TEST(OptimalTest, MultiChunkRequestsShareAdmission) {
  // A request spanning 3 chunks with capacity 2 cannot be fully admitted;
  // a_t forces all-or-nothing, so the LP (relaxed) serves it at most 2/3.
  trace::Trace t = MakeTrace({{1.0, 1, 0, 2}, {2.0, 1, 0, 2}, {3.0, 1, 0, 2}});
  OptimalBound bound = Solve(t, 2, 1.0, Formulation::kPaperExact);
  ASSERT_EQ(bound.status, lp::SolveStatus::kOptimal);
  // Full service impossible: cost strictly above the capacity-4 variant.
  OptimalBound roomy = Solve(t, 4, 1.0, Formulation::kPaperExact);
  EXPECT_GT(bound.total_cost, roomy.total_cost + 0.5);
}

}  // namespace
}  // namespace vcdn::core
