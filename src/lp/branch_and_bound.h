// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Branch-and-bound mixed 0/1 integer programming on top of the simplex
// solver. The paper formulates offline caching as an Integer Program
// (Sec. 7) but only solves its LP relaxation; Sec. 10 lists "an exact
// optimal solution ... whether the proposed IP formulation or a customized
// algorithm" as future work. This solver provides that exact optimum for
// limited scales.
//
// Scope: minimization; any subset of variables declared integral (their
// bounds are expected to be within [0, 1] for the caching IPs, though the
// code only assumes finite bounds). Depth-first search branching on the most
// fractional integral variable, pruning by the incumbent, with node and
// iteration budgets.

#ifndef VCDN_SRC_LP_BRANCH_AND_BOUND_H_
#define VCDN_SRC_LP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <vector>

#include "src/lp/model.h"
#include "src/lp/simplex.h"

namespace vcdn::lp {

struct BranchAndBoundOptions {
  SimplexOptions simplex;
  // Search budget; exceeding it returns the incumbent with kIterationLimit.
  int64_t max_nodes = 100000;
};

struct MipSolution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> primal;
  int64_t nodes_explored = 0;
  // Best LP bound at the root (for gap reporting).
  double root_relaxation = 0.0;
  // Total simplex effort across all node relaxations.
  SimplexStats simplex_stats;
};

// Minimizes the model with the given columns required to take integral
// values. Returns kOptimal with the exact optimum, kInfeasible if no
// integral point exists, or kIterationLimit with the best incumbent found
// within the node budget (primal empty if none).
MipSolution SolveMip(const Model& model, const std::vector<int32_t>& integer_columns,
                     const BranchAndBoundOptions& options = {});

}  // namespace vcdn::lp

#endif  // VCDN_SRC_LP_BRANCH_AND_BOUND_H_
