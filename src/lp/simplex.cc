// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace vcdn::lp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Primal feasibility / dual optimality tolerance.
constexpr double kTolerance = 1e-7;
// Smallest acceptable pivot magnitude.
constexpr double kPivotTolerance = 1e-9;
// Iterations without objective progress before switching to Bland's rule.
constexpr int64_t kStallThreshold = 2000;
}  // namespace

const char* SolveStatusName(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "OPTIMAL";
    case SolveStatus::kInfeasible:
      return "INFEASIBLE";
    case SolveStatus::kUnbounded:
      return "UNBOUNDED";
    case SolveStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case SolveStatus::kNumericalFailure:
      return "NUMERICAL_FAILURE";
  }
  return "UNKNOWN";
}

// The working state of one solve. Variables are indexed 0..n-1 (structural)
// and n..n+m-1 (logical; logical j represents row j-n with column -e_{j-n}).
class SimplexSolver::Impl {
 public:
  Impl(const CompiledModel& model, const SimplexOptions& options)
      : model_(model),
        options_(options),
        m_(model.num_rows),
        n_(model.num_columns),
        total_(model.num_columns + model.num_rows) {}

  Solution Run();

 private:
  enum class VarStatus : uint8_t { kBasic, kAtLower, kAtUpper, kFreeZero };

  double LowerOf(int32_t var) const {
    return var < n_ ? model_.column_lower[static_cast<size_t>(var)]
                    : model_.row_lower[static_cast<size_t>(var - n_)];
  }
  double UpperOf(int32_t var) const {
    return var < n_ ? model_.column_upper[static_cast<size_t>(var)]
                    : model_.row_upper[static_cast<size_t>(var - n_)];
  }
  double CostOf(int32_t var) const {
    return var < n_ ? model_.objective[static_cast<size_t>(var)] : 0.0;
  }

  // y += coef * column(var), on a dense m-vector.
  void AddColumn(std::vector<double>& y, int32_t var, double coef) const;
  // Dot product of a dense m-vector with column(var).
  double DotColumn(const std::vector<double>& y, int32_t var) const;

  void SetupInitialBasis();
  // ftran: out = Binv * column(var).
  void Ftran(int32_t var, std::vector<double>& out) const;
  // btran: out = Binv^T * in  (i.e., out = in' * Binv).
  void Btran(const std::vector<double>& in, std::vector<double>& out) const;

  // Rebuilds Binv from the current basis columns. False on singular basis.
  bool Refactorize();
  // Recomputes basic variable values from nonbasic values.
  void RecomputeBasicValues();
  // Max |A x - s| residual over all rows.
  double Residual() const;

  double InfeasibilityOf(int32_t var) const {
    double v = value_[static_cast<size_t>(var)];
    double lo = LowerOf(var);
    double hi = UpperOf(var);
    if (v < lo - kTolerance) {
      return lo - v;
    }
    if (v > hi + kTolerance) {
      return v - hi;
    }
    return 0.0;
  }
  double TotalInfeasibility() const;

  // One simplex iteration. phase1: use composite infeasibility costs.
  // Returns false when no improving direction exists (optimal for the phase).
  enum class StepResult { kPivoted, kBoundFlip, kNoDirection, kUnbounded, kNumericalFailure };
  StepResult Iterate(bool phase1, bool bland);

  const CompiledModel& model_;
  SimplexOptions options_;
  int32_t m_;
  int32_t n_;
  int32_t total_;

  std::vector<double> value_;          // all variables
  std::vector<VarStatus> status_;      // all variables
  std::vector<int32_t> basic_var_;     // basis position -> variable
  std::vector<int32_t> basis_pos_;     // variable -> basis position or -1
  std::vector<double> binv_;           // dense m x m, row-major
  int64_t iterations_ = 0;
  int64_t refactorizations_ = 0;

  // Scratch buffers.
  std::vector<double> ftran_;
  std::vector<double> cost_b_;
  std::vector<double> y_;
};

void SimplexSolver::Impl::AddColumn(std::vector<double>& y, int32_t var, double coef) const {
  if (var >= n_) {
    y[static_cast<size_t>(var - n_)] -= coef;  // logical column is -e_row
    return;
  }
  auto begin = static_cast<size_t>(model_.column_start[static_cast<size_t>(var)]);
  auto end = static_cast<size_t>(model_.column_start[static_cast<size_t>(var) + 1]);
  for (size_t k = begin; k < end; ++k) {
    y[static_cast<size_t>(model_.row_index[k])] += coef * model_.value[k];
  }
}

double SimplexSolver::Impl::DotColumn(const std::vector<double>& y, int32_t var) const {
  if (var >= n_) {
    return -y[static_cast<size_t>(var - n_)];
  }
  double sum = 0.0;
  auto begin = static_cast<size_t>(model_.column_start[static_cast<size_t>(var)]);
  auto end = static_cast<size_t>(model_.column_start[static_cast<size_t>(var) + 1]);
  for (size_t k = begin; k < end; ++k) {
    sum += y[static_cast<size_t>(model_.row_index[k])] * model_.value[k];
  }
  return sum;
}

void SimplexSolver::Impl::SetupInitialBasis() {
  value_.assign(static_cast<size_t>(total_), 0.0);
  status_.assign(static_cast<size_t>(total_), VarStatus::kAtLower);
  basic_var_.resize(static_cast<size_t>(m_));
  basis_pos_.assign(static_cast<size_t>(total_), -1);

  // Structural variables start nonbasic at their "best" finite bound.
  for (int32_t j = 0; j < n_; ++j) {
    double lo = LowerOf(j);
    double hi = UpperOf(j);
    if (std::isfinite(lo)) {
      status_[static_cast<size_t>(j)] = VarStatus::kAtLower;
      value_[static_cast<size_t>(j)] = lo;
    } else if (std::isfinite(hi)) {
      status_[static_cast<size_t>(j)] = VarStatus::kAtUpper;
      value_[static_cast<size_t>(j)] = hi;
    } else {
      status_[static_cast<size_t>(j)] = VarStatus::kFreeZero;
      value_[static_cast<size_t>(j)] = 0.0;
    }
  }
  // Logicals form the initial basis; B = -I so Binv = -I.
  binv_.assign(static_cast<size_t>(m_) * static_cast<size_t>(m_), 0.0);
  for (int32_t i = 0; i < m_; ++i) {
    int32_t var = n_ + i;
    basic_var_[static_cast<size_t>(i)] = var;
    basis_pos_[static_cast<size_t>(var)] = i;
    status_[static_cast<size_t>(var)] = VarStatus::kBasic;
    binv_[static_cast<size_t>(i) * static_cast<size_t>(m_) + static_cast<size_t>(i)] = -1.0;
  }
  RecomputeBasicValues();
}

void SimplexSolver::Impl::Ftran(int32_t var, std::vector<double>& out) const {
  out.assign(static_cast<size_t>(m_), 0.0);
  if (var >= n_) {
    // Column is -e_r: out = -Binv[:, r].
    size_t r = static_cast<size_t>(var - n_);
    for (size_t i = 0; i < static_cast<size_t>(m_); ++i) {
      out[i] = -binv_[i * static_cast<size_t>(m_) + r];
    }
    return;
  }
  auto begin = static_cast<size_t>(model_.column_start[static_cast<size_t>(var)]);
  auto end = static_cast<size_t>(model_.column_start[static_cast<size_t>(var) + 1]);
  for (size_t k = begin; k < end; ++k) {
    size_t r = static_cast<size_t>(model_.row_index[k]);
    double v = model_.value[k];
    const double* col = &binv_[r];  // column r of row-major binv: stride m
    for (size_t i = 0; i < static_cast<size_t>(m_); ++i) {
      out[i] += v * col[i * static_cast<size_t>(m_)];
    }
  }
}

void SimplexSolver::Impl::Btran(const std::vector<double>& in, std::vector<double>& out) const {
  out.assign(static_cast<size_t>(m_), 0.0);
  for (size_t i = 0; i < static_cast<size_t>(m_); ++i) {
    double c = in[i];
    if (c == 0.0) {
      continue;
    }
    const double* row = &binv_[i * static_cast<size_t>(m_)];
    for (size_t r = 0; r < static_cast<size_t>(m_); ++r) {
      out[r] += c * row[r];
    }
  }
}

bool SimplexSolver::Impl::Refactorize() {
  ++refactorizations_;
  // Build the dense basis matrix column by column, then invert via
  // Gauss-Jordan with partial pivoting: [B | I] -> [I | Binv].
  size_t m = static_cast<size_t>(m_);
  std::vector<double> work(m * 2 * m, 0.0);  // rows of [B | I]
  auto at = [&](size_t r, size_t c) -> double& { return work[r * 2 * m + c]; };
  std::vector<double> col(m);
  for (size_t bp = 0; bp < m; ++bp) {
    int32_t var = basic_var_[bp];
    std::fill(col.begin(), col.end(), 0.0);
    AddColumn(col, var, 1.0);
    for (size_t r = 0; r < m; ++r) {
      at(r, bp) = col[r];
    }
  }
  for (size_t r = 0; r < m; ++r) {
    at(r, m + r) = 1.0;
  }
  for (size_t c = 0; c < m; ++c) {
    // Partial pivot.
    size_t pivot_row = c;
    double best = std::fabs(at(c, c));
    for (size_t r = c + 1; r < m; ++r) {
      if (std::fabs(at(r, c)) > best) {
        best = std::fabs(at(r, c));
        pivot_row = r;
      }
    }
    if (best < kPivotTolerance) {
      return false;  // singular basis
    }
    if (pivot_row != c) {
      for (size_t k = 0; k < 2 * m; ++k) {
        std::swap(at(c, k), at(pivot_row, k));
      }
    }
    double pivot = at(c, c);
    for (size_t k = 0; k < 2 * m; ++k) {
      at(c, k) /= pivot;
    }
    for (size_t r = 0; r < m; ++r) {
      if (r == c) {
        continue;
      }
      double factor = at(r, c);
      if (factor == 0.0) {
        continue;
      }
      for (size_t k = 0; k < 2 * m; ++k) {
        at(r, k) -= factor * at(c, k);
      }
    }
  }
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < m; ++c) {
      binv_[r * m + c] = at(r, m + c);
    }
  }
  RecomputeBasicValues();
  return true;
}

void SimplexSolver::Impl::RecomputeBasicValues() {
  // rhs = -(sum over nonbasic columns of value_j * column_j); z_B = Binv*rhs.
  size_t m = static_cast<size_t>(m_);
  std::vector<double> rhs(m, 0.0);
  for (int32_t j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == VarStatus::kBasic) {
      continue;
    }
    double v = value_[static_cast<size_t>(j)];
    if (v != 0.0) {
      AddColumn(rhs, j, -v);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    double sum = 0.0;
    const double* row = &binv_[i * m];
    for (size_t r = 0; r < m; ++r) {
      sum += row[r] * rhs[r];
    }
    value_[static_cast<size_t>(basic_var_[i])] = sum;
  }
}

double SimplexSolver::Impl::Residual() const {
  // All columns (including logicals at their values) must sum to zero.
  size_t m = static_cast<size_t>(m_);
  std::vector<double> acc(m, 0.0);
  for (int32_t j = 0; j < total_; ++j) {
    double v = value_[static_cast<size_t>(j)];
    if (v != 0.0) {
      const_cast<Impl*>(this)->AddColumn(acc, j, v);
    }
  }
  double worst = 0.0;
  for (double a : acc) {
    worst = std::max(worst, std::fabs(a));
  }
  return worst;
}

double SimplexSolver::Impl::TotalInfeasibility() const {
  double total = 0.0;
  for (int32_t i = 0; i < m_; ++i) {
    total += InfeasibilityOf(basic_var_[static_cast<size_t>(i)]);
  }
  return total;
}

SimplexSolver::Impl::StepResult SimplexSolver::Impl::Iterate(bool phase1, bool bland) {
  size_t m = static_cast<size_t>(m_);
  const double tol = kTolerance;

  // Phase-dependent basic costs.
  cost_b_.assign(m, 0.0);
  if (phase1) {
    for (size_t i = 0; i < m; ++i) {
      int32_t var = basic_var_[i];
      double v = value_[static_cast<size_t>(var)];
      if (v < LowerOf(var) - tol) {
        cost_b_[i] = -1.0;
      } else if (v > UpperOf(var) + tol) {
        cost_b_[i] = 1.0;
      }
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      cost_b_[i] = CostOf(basic_var_[i]);
    }
  }
  Btran(cost_b_, y_);

  // Pricing: pick the entering variable.
  int32_t entering = -1;
  double entering_dir = 0.0;
  double best_score = tol;
  for (int32_t j = 0; j < total_; ++j) {
    VarStatus st = status_[static_cast<size_t>(j)];
    if (st == VarStatus::kBasic) {
      continue;
    }
    double cost_j = phase1 ? 0.0 : CostOf(j);
    double d = cost_j - DotColumn(y_, j);
    // Increasing is attractive if d < 0; decreasing if d > 0.
    bool can_increase = (st == VarStatus::kAtLower || st == VarStatus::kFreeZero);
    bool can_decrease = (st == VarStatus::kAtUpper || st == VarStatus::kFreeZero);
    if (can_increase && d < -best_score) {
      entering = j;
      entering_dir = 1.0;
      if (bland) {
        break;
      }
      best_score = -d;
    } else if (can_decrease && d > best_score) {
      entering = j;
      entering_dir = -1.0;
      if (bland) {
        break;
      }
      best_score = d;
    }
  }
  if (entering == -1) {
    return StepResult::kNoDirection;
  }

  // Direction of basic values: z_B changes by -t * dir * (Binv * col).
  Ftran(entering, ftran_);

  // Ratio test.
  double best_t = kInf;
  int32_t blocking_pos = -1;
  double blocking_bound = 0.0;
  double best_pivot = 0.0;
  for (size_t i = 0; i < m; ++i) {
    double coef = entering_dir * ftran_[i];
    if (std::fabs(coef) < kPivotTolerance) {
      continue;
    }
    int32_t var = basic_var_[i];
    double v = value_[static_cast<size_t>(var)];
    double lo = LowerOf(var);
    double hi = UpperOf(var);
    double t;
    double bound;
    if (coef > 0.0) {
      // Basic value decreases. A variable already below its lower bound does
      // not block (its growing violation is what phase 1's objective is
      // already steering); one above its upper bound blocks where it becomes
      // feasible (the upper bound); feasible ones block at their lower bound.
      if (v < lo - tol) {
        continue;
      }
      if (phase1 && v > hi + tol) {
        bound = hi;
      } else {
        bound = lo;
      }
      if (!std::isfinite(bound)) {
        continue;
      }
      t = (v - bound) / coef;
    } else {
      // Basic value increases; symmetric cases.
      if (v > hi + tol) {
        continue;
      }
      if (phase1 && v < lo - tol) {
        bound = lo;
      } else {
        bound = hi;
      }
      if (!std::isfinite(bound)) {
        continue;
      }
      t = (v - bound) / coef;  // coef < 0 and v <= bound => t >= 0
    }
    t = std::max(t, 0.0);
    // Prefer strictly smaller ratios; among near-ties keep the largest pivot
    // for numerical stability (a poor man's Harris test). Bland's rule picks
    // the smallest variable index among ties instead.
    bool take = false;
    if (t < best_t - 1e-12) {
      take = true;
    } else if (t < best_t + 1e-12 && blocking_pos >= 0) {
      if (bland) {
        take = basic_var_[i] < basic_var_[static_cast<size_t>(blocking_pos)];
      } else {
        take = std::fabs(coef) > std::fabs(best_pivot);
      }
    }
    if (take) {
      best_t = t;
      blocking_pos = static_cast<int32_t>(i);
      blocking_bound = bound;
      best_pivot = coef;
    }
  }

  // Bound flip: the entering variable may reach its own opposite bound first.
  double lo_e = LowerOf(entering);
  double hi_e = UpperOf(entering);
  double flip_t = kInf;
  if (std::isfinite(lo_e) && std::isfinite(hi_e)) {
    flip_t = hi_e - lo_e;
  }
  if (std::isfinite(flip_t) && flip_t <= best_t) {
    // Flip without changing the basis.
    double delta = entering_dir * flip_t;
    value_[static_cast<size_t>(entering)] += delta;
    status_[static_cast<size_t>(entering)] =
        entering_dir > 0.0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
    for (size_t i = 0; i < m; ++i) {
      value_[static_cast<size_t>(basic_var_[i])] -= delta * ftran_[i];
    }
    return StepResult::kBoundFlip;
  }
  if (blocking_pos < 0) {
    return phase1 ? StepResult::kNumericalFailure : StepResult::kUnbounded;
  }

  // Pivot: entering moves by t, blocking leaves at its bound.
  double t = best_t;
  double delta = entering_dir * t;
  for (size_t i = 0; i < m; ++i) {
    value_[static_cast<size_t>(basic_var_[i])] -= delta * ftran_[i];
  }
  value_[static_cast<size_t>(entering)] += delta;

  int32_t leaving = basic_var_[static_cast<size_t>(blocking_pos)];
  value_[static_cast<size_t>(leaving)] = blocking_bound;
  status_[static_cast<size_t>(leaving)] =
      (blocking_bound == LowerOf(leaving)) ? VarStatus::kAtLower : VarStatus::kAtUpper;
  basis_pos_[static_cast<size_t>(leaving)] = -1;

  status_[static_cast<size_t>(entering)] = VarStatus::kBasic;
  basic_var_[static_cast<size_t>(blocking_pos)] = entering;
  basis_pos_[static_cast<size_t>(entering)] = blocking_pos;

  // Update Binv: eliminate so that column(entering) becomes e_{blocking_pos}.
  double pivot = ftran_[static_cast<size_t>(blocking_pos)];
  if (std::fabs(pivot) < kPivotTolerance) {
    return StepResult::kNumericalFailure;
  }
  size_t bp = static_cast<size_t>(blocking_pos);
  double* pivot_row = &binv_[bp * m];
  for (size_t k = 0; k < m; ++k) {
    pivot_row[k] /= pivot;
  }
  for (size_t i = 0; i < m; ++i) {
    if (i == bp) {
      continue;
    }
    double factor = ftran_[i];
    if (factor == 0.0) {
      continue;
    }
    double* row = &binv_[i * m];
    for (size_t k = 0; k < m; ++k) {
      row[k] -= factor * pivot_row[k];
    }
  }
  return StepResult::kPivoted;
}

Solution SimplexSolver::Impl::Run() {
  Solution solution;
  if (m_ == 0 || n_ == 0) {
    // Degenerate model: no rows -> every variable sits at its best bound.
    solution.status = SolveStatus::kOptimal;
    solution.primal.assign(static_cast<size_t>(n_), 0.0);
    solution.row_activity.assign(static_cast<size_t>(m_), 0.0);
    double obj = 0.0;
    for (int32_t j = 0; j < n_; ++j) {
      double c = model_.objective[static_cast<size_t>(j)];
      double v;
      if (c > 0.0) {
        v = model_.column_lower[static_cast<size_t>(j)];
      } else if (c < 0.0) {
        v = model_.column_upper[static_cast<size_t>(j)];
      } else {
        v = std::isfinite(model_.column_lower[static_cast<size_t>(j)])
                ? model_.column_lower[static_cast<size_t>(j)]
                : 0.0;
      }
      if (!std::isfinite(v)) {
        solution.status = SolveStatus::kUnbounded;
        v = 0.0;
      }
      solution.primal[static_cast<size_t>(j)] = v;
      obj += c * v;
    }
    solution.objective = obj;
    return solution;
  }

  SetupInitialBasis();

  int64_t max_iter = options_.max_iterations > 0
                         ? options_.max_iterations
                         : 200 * static_cast<int64_t>(m_ + n_) + 20000;

  bool phase1 = TotalInfeasibility() > kTolerance;
  int64_t stall = 0;
  double last_objective = kInf;
  bool bland = false;

  while (iterations_ < max_iter) {
    ++iterations_;

    if (options_.residual_check_interval > 0 &&
        iterations_ % options_.residual_check_interval == 0) {
      if (Residual() > 1e-6) {
        if (!Refactorize()) {
          solution.status = SolveStatus::kNumericalFailure;
          break;
        }
      }
    }

    StepResult step = Iterate(phase1, bland);
    if (step == StepResult::kNumericalFailure) {
      // One repair attempt via refactorization.
      if (!Refactorize()) {
        solution.status = SolveStatus::kNumericalFailure;
        break;
      }
      continue;
    }
    if (step == StepResult::kUnbounded) {
      solution.status = SolveStatus::kUnbounded;
      break;
    }
    if (step == StepResult::kNoDirection) {
      if (phase1) {
        if (TotalInfeasibility() > kTolerance * 10.0) {
          solution.status = SolveStatus::kInfeasible;
          break;
        }
        phase1 = false;
        bland = false;
        stall = 0;
        last_objective = kInf;
        continue;
      }
      solution.status = SolveStatus::kOptimal;
      break;
    }

    // Phase transition check: once feasible, switch to phase 2.
    if (phase1 && TotalInfeasibility() <= kTolerance) {
      phase1 = false;
      bland = false;
      stall = 0;
      last_objective = kInf;
      continue;
    }

    // Stall detection for Bland's anti-cycling rule.
    double obj = phase1 ? TotalInfeasibility() : 0.0;
    if (!phase1) {
      for (int32_t j = 0; j < n_; ++j) {
        obj += model_.objective[static_cast<size_t>(j)] * value_[static_cast<size_t>(j)];
      }
    }
    if (obj < last_objective - 1e-12) {
      last_objective = obj;
      stall = 0;
      bland = false;
    } else if (++stall > kStallThreshold) {
      bland = true;
    }
  }

  if (iterations_ >= max_iter && solution.status == SolveStatus::kNumericalFailure) {
    solution.status = SolveStatus::kIterationLimit;
  }

  // Extract the solution regardless of status (iteration-limit callers may
  // still want the incumbent point).
  solution.primal.assign(static_cast<size_t>(n_), 0.0);
  for (int32_t j = 0; j < n_; ++j) {
    solution.primal[static_cast<size_t>(j)] = value_[static_cast<size_t>(j)];
  }
  solution.row_activity.assign(static_cast<size_t>(m_), 0.0);
  for (int32_t j = 0; j < n_; ++j) {
    double v = solution.primal[static_cast<size_t>(j)];
    if (v == 0.0) {
      continue;
    }
    auto begin = static_cast<size_t>(model_.column_start[static_cast<size_t>(j)]);
    auto end = static_cast<size_t>(model_.column_start[static_cast<size_t>(j) + 1]);
    for (size_t k = begin; k < end; ++k) {
      solution.row_activity[static_cast<size_t>(model_.row_index[k])] += v * model_.value[k];
    }
  }
  double obj = 0.0;
  for (int32_t j = 0; j < n_; ++j) {
    obj += model_.objective[static_cast<size_t>(j)] * solution.primal[static_cast<size_t>(j)];
  }
  solution.objective = obj;
  solution.stats.iterations = iterations_;
  solution.stats.refactorizations = refactorizations_;
  return solution;
}

SimplexSolver::SimplexSolver(SimplexOptions options) : options_(options) {}

Solution SimplexSolver::Solve(const CompiledModel& model) {
  Impl impl(model, options_);
  Solution solution = impl.Run();
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lp.simplex.solves_total").Increment();
    options_.metrics->GetCounter("lp.simplex.iterations_total")
        .Increment(static_cast<uint64_t>(solution.stats.iterations));
    options_.metrics->GetCounter("lp.simplex.refactorizations_total")
        .Increment(static_cast<uint64_t>(solution.stats.refactorizations));
  }
  return solution;
}

Solution SolveModel(const Model& model, const SimplexOptions& options) {
  SimplexSolver solver(options);
  CompiledModel compiled = model.Compile();
  return solver.Solve(compiled);
}

}  // namespace vcdn::lp
