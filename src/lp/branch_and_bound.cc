// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace vcdn::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// |x - round(x)| <= kIntegralityTolerance counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

struct Node {
  // Tightened bounds for the integer columns only (parallel arrays with the
  // integer column list).
  std::vector<double> lower;
  std::vector<double> upper;
};

// Index of the most fractional integer column, or -1 if all integral.
int32_t MostFractional(const Solution& lp, const std::vector<int32_t>& integer_columns) {
  int32_t best = -1;
  double best_distance = kIntegralityTolerance;
  for (size_t k = 0; k < integer_columns.size(); ++k) {
    double v = lp.primal[static_cast<size_t>(integer_columns[k])];
    double distance = std::fabs(v - std::round(v));
    if (distance > best_distance) {
      best_distance = distance;
      best = static_cast<int32_t>(k);
    }
  }
  return best;
}

}  // namespace

MipSolution SolveMip(const Model& model, const std::vector<int32_t>& integer_columns,
                     const BranchAndBoundOptions& options) {
  CompiledModel compiled = model.Compile();
  for (int32_t col : integer_columns) {
    VCDN_CHECK(col >= 0 && col < compiled.num_columns);
    VCDN_CHECK(std::isfinite(compiled.column_lower[static_cast<size_t>(col)]));
    VCDN_CHECK(std::isfinite(compiled.column_upper[static_cast<size_t>(col)]));
  }
  SimplexSolver solver(options.simplex);

  // Node/incumbent instruments; no-ops when no registry is configured.
  obs::Counter nodes_counter;
  obs::Counter incumbents_counter;
  obs::Gauge incumbent_gauge;
  if (options.simplex.metrics != nullptr) {
    nodes_counter = options.simplex.metrics->GetCounter("lp.bb.nodes_total");
    incumbents_counter = options.simplex.metrics->GetCounter("lp.bb.incumbents_total");
    incumbent_gauge = options.simplex.metrics->GetGauge("lp.bb.incumbent_objective");
  }

  MipSolution best;
  best.status = SolveStatus::kInfeasible;  // until an incumbent is found
  double incumbent = kInf;

  // Depth-first stack of nodes.
  std::vector<Node> stack;
  {
    Node root;
    root.lower.reserve(integer_columns.size());
    root.upper.reserve(integer_columns.size());
    for (int32_t col : integer_columns) {
      root.lower.push_back(compiled.column_lower[static_cast<size_t>(col)]);
      root.upper.push_back(compiled.column_upper[static_cast<size_t>(col)]);
    }
    stack.push_back(std::move(root));
  }

  bool budget_exhausted = false;
  bool first_node = true;
  while (!stack.empty()) {
    if (best.nodes_explored >= options.max_nodes) {
      budget_exhausted = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;
    nodes_counter.Increment();

    // Apply the node's integer bounds.
    for (size_t k = 0; k < integer_columns.size(); ++k) {
      compiled.column_lower[static_cast<size_t>(integer_columns[k])] = node.lower[k];
      compiled.column_upper[static_cast<size_t>(integer_columns[k])] = node.upper[k];
    }
    Solution lp = solver.Solve(compiled);
    best.simplex_stats.Accumulate(lp.stats);
    if (first_node) {
      best.root_relaxation = lp.status == SolveStatus::kOptimal ? lp.objective : -kInf;
      first_node = false;
    }
    if (lp.status == SolveStatus::kInfeasible) {
      continue;
    }
    if (lp.status != SolveStatus::kOptimal) {
      // Unbounded or numerical trouble at a node: give up cleanly.
      best.status = lp.status;
      return best;
    }
    if (lp.objective >= incumbent - 1e-9) {
      continue;  // pruned by bound
    }
    int32_t branch = MostFractional(lp, integer_columns);
    if (branch < 0) {
      // Integral: new incumbent.
      incumbent = lp.objective;
      best.objective = lp.objective;
      best.primal = lp.primal;
      // Snap near-integral values exactly.
      for (int32_t col : integer_columns) {
        best.primal[static_cast<size_t>(col)] = std::round(best.primal[static_cast<size_t>(col)]);
      }
      best.status = SolveStatus::kOptimal;
      incumbents_counter.Increment();
      incumbent_gauge.Set(best.objective);
      continue;
    }
    double value = lp.primal[static_cast<size_t>(integer_columns[static_cast<size_t>(branch)])];
    double floor_value = std::floor(value);
    // Down branch (x <= floor) explored after the up branch (x >= ceil):
    // push down first so up pops first -- for caching IPs, serving more
    // tends to find good incumbents early.
    Node down = node;
    down.upper[static_cast<size_t>(branch)] = floor_value;
    Node up = std::move(node);
    up.lower[static_cast<size_t>(branch)] = floor_value + 1.0;
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  if (budget_exhausted && best.status != SolveStatus::kOptimal) {
    best.status = SolveStatus::kIterationLimit;
  } else if (budget_exhausted) {
    // Have an incumbent but search was truncated: not proven optimal.
    best.status = SolveStatus::kIterationLimit;
  }
  return best;
}

}  // namespace vcdn::lp
