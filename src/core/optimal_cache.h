// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Optimal Cache (Sec. 7): the offline caching problem as an Integer Program,
// LP-relaxed to obtain "a guaranteed, theoretical lower bound on the
// achievable cost -- equivalently, an upper bound on cache efficiency".
//
// The LP is the interval formulation: per request of chunk j, a presence
// variable p_{j,i} (at the request) and a keep variable w_{j,i} (through the
// following interval). An optimal solution of the paper's Eqs. (10)-(12)
// changes a chunk's presence x_{j,t} only at that chunk's request times, so
// both LPs have the same optimum; this one has ~3 rows per chunk-request
// incidence instead of ~3*J rows per time step. The paper's per-chunk,
// per-time formulation is the test oracle (tests/oracles/paper_exact_lp.h)
// that tests/core_optimal_test.cc checks this one against.
//
// The LP cost is measured in chunks (|R_t|_c in Eq. (10a)), so the matching
// cache-efficiency metric is ReplayTotals::ChunkEfficiency.

#ifndef VCDN_SRC_CORE_OPTIMAL_CACHE_H_
#define VCDN_SRC_CORE_OPTIMAL_CACHE_H_

#include <cstdint>
#include <string>

#include "src/core/cache_algorithm.h"
#include "src/lp/simplex.h"
#include "src/trace/request.h"

namespace vcdn::core {

struct OptimalOptions {
  // Objective accounting for fills:
  //   false (default): each fill costs a full C_F -- the same accounting the
  //     online algorithms are measured under (ReplayTotals), so bounds and
  //     measurements are directly comparable. Still a valid lower bound.
  //   true: the paper's literal |x_{j,t} - x_{j,t-1}|/2 objective (Eq. 10a),
  //     where a fill and its eventual eviction cost half a C_F each; a chunk
  //     still cached at the horizon has paid only C_F/2. Looser on short
  //     traces (it under-charges never-evicted fills) but matches Eq. (10a)
  //     exactly.
  bool use_paper_half_cost = false;
  lp::SimplexOptions simplex;
};

struct OptimalBound {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  // LP-relaxed minimum total cost (Eq. (10a)/(11)), in chunk units.
  double total_cost = 0.0;
  // The corresponding upper bound on chunk-granular cache efficiency:
  // 1 - total_cost / total_requested_chunks.
  double efficiency_bound = 0.0;
  uint64_t total_requested_chunks = 0;
  // LP dimensions and effort, for reporting.
  int32_t num_rows = 0;
  int32_t num_columns = 0;
  lp::SimplexStats stats;
};

// Result of the exact Integer Program (branch & bound over the LP): the true
// offline optimum of Problem 2, for limited scales (Sec. 10 future work).
struct OptimalExactResult {
  lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
  double total_cost = 0.0;
  double efficiency = 0.0;
  uint64_t total_requested_chunks = 0;
  int64_t nodes_explored = 0;
  // LP relaxation at the root, for integrality-gap reporting.
  double root_relaxation_cost = 0.0;
  // Total simplex effort across all node relaxations.
  lp::SimplexStats stats;
};

// Solves the offline LP bound for a full request sequence against a given
// disk size / alpha (Problem 2 of Sec. 4.3, relaxed).
class OptimalCacheSolver {
 public:
  OptimalCacheSolver(const CacheConfig& config, const OptimalOptions& options = {});

  OptimalBound SolveBound(const trace::Trace& trace) const;

  // Exact integral optimum via branch & bound on the interval formulation.
  // Exponential worst case -- use on downsampled instances only.
  OptimalExactResult SolveExact(const trace::Trace& trace, int64_t max_nodes = 100000) const;

 private:
  CacheConfig config_;
  CostModel cost_;
  OptimalOptions options_;
};

}  // namespace vcdn::core

#endif  // VCDN_SRC_CORE_OPTIMAL_CACHE_H_
