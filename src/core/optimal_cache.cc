// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/core/optimal_cache.h"

#include <unordered_map>
#include <vector>

#include "src/lp/branch_and_bound.h"
#include "src/lp/model.h"
#include "src/util/check.h"

namespace vcdn::core {

namespace {

// Preprocessed request sequence: unique chunks and their request steps.
struct Incidence {
  std::vector<std::vector<int32_t>> chunks_of_step;  // step -> unique chunk ids
  std::vector<std::vector<int32_t>> steps_of_chunk;  // chunk -> ascending steps
  uint64_t total_requested_chunks = 0;
};

Incidence BuildIncidence(const trace::Trace& trace, uint64_t chunk_bytes) {
  Incidence inc;
  inc.chunks_of_step.resize(trace.requests.size());
  std::unordered_map<ChunkId, int32_t, ChunkIdHash> chunk_index;
  for (size_t t = 0; t < trace.requests.size(); ++t) {
    ChunkRange range = ToChunkRange(trace.requests[t], chunk_bytes);
    inc.total_requested_chunks += range.count();
    for (uint32_t c = range.first; c <= range.last; ++c) {
      ChunkId chunk{trace.requests[t].video, c};
      auto [it, inserted] = chunk_index.emplace(chunk, static_cast<int32_t>(chunk_index.size()));
      if (inserted) {
        inc.steps_of_chunk.emplace_back();
      }
      inc.chunks_of_step[t].push_back(it->second);
      inc.steps_of_chunk[static_cast<size_t>(it->second)].push_back(static_cast<int32_t>(t));
    }
  }
  return inc;
}

}  // namespace

OptimalCacheSolver::OptimalCacheSolver(const CacheConfig& config, const OptimalOptions& options)
    : config_(config), cost_(config.alpha_f2r), options_(options) {
  VCDN_CHECK(config.disk_capacity_chunks > 0);
}

// Interval formulation: for chunk j with request steps tau_0 < ... < tau_{k-1},
//   p_{j,i} in [0,1]: presence at tau_i (after any fill),
//   w_{j,i} in [0,1]: presence kept through (tau_i, tau_{i+1}) (w_{j,k-1}:
//                     kept to the horizon).
// Fills are f_{j,i} = p_{j,i} - w_{j,i-1} >= 0, costed C_F each; the paper's
// |dx|/2 objective equals C_F * fills - (C_F/2) * (presence at horizon),
// hence the half-credit on w_{j,k-1}. Admission: p_{j,i} >= a_t. Capacity is
// enforced at every request step over p (chunks requested now) and w (chunks
// in an open interval).
namespace {

// The compiled interval formulation plus its bookkeeping.
struct IntervalModel {
  lp::Model model;
  double constant = 0.0;
  Incidence incidence;
};

IntervalModel BuildIntervalModel(const trace::Trace& trace, const CacheConfig& config,
                                 const CostModel& cost, bool use_paper_half_cost) {
  IntervalModel out;
  out.incidence = BuildIncidence(trace, config.chunk_bytes);
  const Incidence& inc = out.incidence;
  auto num_steps = static_cast<int32_t>(trace.requests.size());
  auto num_chunks = static_cast<int32_t>(inc.steps_of_chunk.size());
  const double fill_cost = cost.fill_cost();
  const double redirect_cost = cost.redirect_cost();

  lp::Model& model = out.model;
  double& constant = out.constant;

  // a_t first.
  for (int32_t t = 0; t < num_steps; ++t) {
    auto request_chunks =
        static_cast<double>(inc.chunks_of_step[static_cast<size_t>(t)].size());
    model.AddVariable(0.0, 1.0, -redirect_cost * request_chunks);
    constant += redirect_cost * request_chunks;
  }
  auto a_var = [](int32_t t) { return t; };

  // p/w variables per chunk-request incidence.
  std::vector<std::vector<int32_t>> p_vars(static_cast<size_t>(num_chunks));
  std::vector<std::vector<int32_t>> w_vars(static_cast<size_t>(num_chunks));
  for (int32_t j = 0; j < num_chunks; ++j) {
    const auto& steps = inc.steps_of_chunk[static_cast<size_t>(j)];
    auto k = steps.size();
    for (size_t i = 0; i < k; ++i) {
      p_vars[static_cast<size_t>(j)].push_back(model.AddVariable(0.0, 1.0, fill_cost));
      // Interior keeps offset the next fill's cost in full. The final keep
      // earns the paper's half-credit under half-cost accounting (a chunk
      // cached at the horizon was only charged the fill transition), and
      // nothing under full-cost accounting.
      double w_obj;
      if (i + 1 == k) {
        w_obj = use_paper_half_cost ? -fill_cost / 2.0 : 0.0;
      } else {
        w_obj = -fill_cost;
      }
      w_vars[static_cast<size_t>(j)].push_back(model.AddVariable(0.0, 1.0, w_obj));
    }
  }

  // Per-incidence rows.
  for (int32_t j = 0; j < num_chunks; ++j) {
    const auto& steps = inc.steps_of_chunk[static_cast<size_t>(j)];
    const auto& p = p_vars[static_cast<size_t>(j)];
    const auto& w = w_vars[static_cast<size_t>(j)];
    for (size_t i = 0; i < steps.size(); ++i) {
      // Admission: a_t - p_{j,i} <= 0.
      int32_t admit = model.AddRow(-lp::kLpInfinity, 0.0);
      model.AddCoefficient(admit, a_var(steps[i]), 1.0);
      model.AddCoefficient(admit, p[i], -1.0);
      // Keep at most presence: w_{j,i} - p_{j,i} <= 0.
      int32_t keep = model.AddRow(-lp::kLpInfinity, 0.0);
      model.AddCoefficient(keep, w[i], 1.0);
      model.AddCoefficient(keep, p[i], -1.0);
      // Fill non-negativity: w_{j,i-1} - p_{j,i} <= 0.
      if (i > 0) {
        int32_t fill = model.AddRow(-lp::kLpInfinity, 0.0);
        model.AddCoefficient(fill, w[i - 1], 1.0);
        model.AddCoefficient(fill, p[i], -1.0);
      }
    }
  }

  // Capacity rows: sweep steps, tracking each chunk's open interval.
  std::vector<int32_t> active_w(static_cast<size_t>(num_chunks), -1);
  std::vector<size_t> next_incidence(static_cast<size_t>(num_chunks), 0);
  std::vector<bool> requested_now(static_cast<size_t>(num_chunks), false);
  std::vector<int32_t> ever_active;
  ever_active.reserve(static_cast<size_t>(num_chunks));
  for (int32_t t = 0; t < num_steps; ++t) {
    const auto& now = inc.chunks_of_step[static_cast<size_t>(t)];
    int32_t row = model.AddRow(-lp::kLpInfinity, static_cast<double>(config.disk_capacity_chunks));
    for (int32_t j : now) {
      requested_now[static_cast<size_t>(j)] = true;
      size_t i = next_incidence[static_cast<size_t>(j)];
      model.AddCoefficient(row, p_vars[static_cast<size_t>(j)][i], 1.0);
    }
    for (int32_t j : ever_active) {
      if (!requested_now[static_cast<size_t>(j)]) {
        model.AddCoefficient(row, active_w[static_cast<size_t>(j)], 1.0);
      }
    }
    for (int32_t j : now) {
      size_t i = next_incidence[static_cast<size_t>(j)]++;
      if (active_w[static_cast<size_t>(j)] < 0) {
        ever_active.push_back(j);
      }
      active_w[static_cast<size_t>(j)] = w_vars[static_cast<size_t>(j)][i];
      requested_now[static_cast<size_t>(j)] = false;
    }
  }

  return out;
}

}  // namespace

OptimalBound OptimalCacheSolver::SolveBound(const trace::Trace& trace) const {
  IntervalModel built =
      BuildIntervalModel(trace, config_, cost_, options_.use_paper_half_cost);
  lp::Solution lp_solution = lp::SolveModel(built.model, options_.simplex);
  OptimalBound bound;
  bound.status = lp_solution.status;
  bound.total_cost = lp_solution.objective + built.constant;
  bound.total_requested_chunks = built.incidence.total_requested_chunks;
  bound.efficiency_bound =
      bound.total_requested_chunks == 0
          ? 0.0
          : 1.0 - bound.total_cost / static_cast<double>(bound.total_requested_chunks);
  bound.num_rows = built.model.num_rows();
  bound.num_columns = built.model.num_columns();
  bound.stats = lp_solution.stats;
  return bound;
}

OptimalExactResult OptimalCacheSolver::SolveExact(const trace::Trace& trace,
                                                  int64_t max_nodes) const {
  IntervalModel built =
      BuildIntervalModel(trace, config_, cost_, options_.use_paper_half_cost);
  // All structural variables are 0/1 in the IP; branch & bound only ever
  // branches on the ones that come out fractional.
  std::vector<int32_t> integer_columns(static_cast<size_t>(built.model.num_columns()));
  for (int32_t c = 0; c < built.model.num_columns(); ++c) {
    integer_columns[static_cast<size_t>(c)] = c;
  }
  lp::BranchAndBoundOptions bb_options;
  bb_options.simplex = options_.simplex;
  bb_options.max_nodes = max_nodes;
  lp::MipSolution mip = lp::SolveMip(built.model, integer_columns, bb_options);

  OptimalExactResult result;
  result.status = mip.status;
  result.total_cost = mip.objective + built.constant;
  result.root_relaxation_cost = mip.root_relaxation + built.constant;
  result.total_requested_chunks = built.incidence.total_requested_chunks;
  result.nodes_explored = mip.nodes_explored;
  result.stats = mip.simplex_stats;
  result.efficiency =
      result.total_requested_chunks == 0
          ? 0.0
          : 1.0 - result.total_cost / static_cast<double>(result.total_requested_chunks);
  return result;
}

}  // namespace vcdn::core
