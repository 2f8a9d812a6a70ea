// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// SolvePaperExact: the test oracle for core::OptimalCacheSolver's interval
// formulation (src/core/optimal_cache.h).
//
// The LP of the paper's Eqs. (10)-(12) verbatim: per-chunk, per-time
// presence variables x_{j,t}, fill counters y_{j,t} >= |dx| and admission
// variables a_t, with the {0,1} -> [0,1] relaxation expressed as variable
// bounds. Under options.use_paper_half_cost, fills are costed as |dx|/2 * C_F
// (each fill plus its eventual eviction contributes two half-units; chunks
// still cached at the horizon keep half a unit of credit). O(J*T) variables,
// so it suits small instances only.
//
// The interval formulation must reach the same optimum:
// tests/core_optimal_test.cc compares the two. Nothing outside tests/ links
// it.

#ifndef VCDN_TESTS_ORACLES_PAPER_EXACT_LP_H_
#define VCDN_TESTS_ORACLES_PAPER_EXACT_LP_H_

#include "src/core/cache_algorithm.h"
#include "src/core/optimal_cache.h"
#include "src/trace/request.h"

namespace vcdn::core {

OptimalBound SolvePaperExact(const trace::Trace& trace, const CacheConfig& config,
                             const OptimalOptions& options = {});

}  // namespace vcdn::core

#endif  // VCDN_TESTS_ORACLES_PAPER_EXACT_LP_H_
