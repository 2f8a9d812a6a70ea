// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Bounded-variable revised simplex solver.
//
// Solves  min c'x  s.t.  L <= Ax <= U,  l <= x <= u  by introducing one
// logical (slack) variable per row (A x - s = 0, s in [L, U]) and running the
// textbook two-phase bounded revised simplex:
//
//   * the basis inverse is kept as an explicit dense m x m matrix, updated in
//     O(m^2) per pivot and rebuilt from scratch (Gauss-Jordan with partial
//     pivoting) when a periodic residual check detects drift;
//   * phase 1 minimizes the sum of bound violations of basic variables with
//     the standard composite objective; phase 2 optimizes c'x;
//   * pricing is Dantzig (steepest reduced cost) with a Bland anti-cycling
//     fallback after a stall, and the ratio test performs bound flips.
//
// Designed for the offline Optimal cache LPs (Sec. 7): thousands of rows,
// extremely sparse 0/+-1 constraint matrices. The all-zero point ("redirect
// everything") is feasible for those models, so phase 1 is typically a no-op.

#ifndef VCDN_SRC_LP_SIMPLEX_H_
#define VCDN_SRC_LP_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "src/lp/model.h"
#include "src/obs/metrics.h"

namespace vcdn::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
};

const char* SolveStatusName(SolveStatus status);

struct SimplexOptions {
  // 0 = automatic (scales with model size).
  int64_t max_iterations = 0;
  // Residual check cadence (iterations); a failed check triggers dense
  // refactorization of the basis inverse.
  int64_t residual_check_interval = 512;
  // Optional instrument registry: each Solve accumulates into
  // "lp.simplex.solves_total" / "lp.simplex.iterations_total" /
  // "lp.simplex.refactorizations_total". Not owned; may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

// Solver effort counters, reported with every Solution so callers (examples,
// benches, the Optimal bound) can surface them instead of discarding them.
struct SimplexStats {
  int64_t iterations = 0;
  int64_t refactorizations = 0;

  void Accumulate(const SimplexStats& other) {
    iterations += other.iterations;
    refactorizations += other.refactorizations;
  }
};

struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  std::vector<double> primal;        // structural variable values
  std::vector<double> row_activity;  // Ax
  SimplexStats stats;
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});

  Solution Solve(const CompiledModel& model);

 private:
  class Impl;
  SimplexOptions options_;
};

// Convenience: compile + solve.
Solution SolveModel(const Model& model, const SimplexOptions& options = {});

}  // namespace vcdn::lp

#endif  // VCDN_SRC_LP_SIMPLEX_H_
