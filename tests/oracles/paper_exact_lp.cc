// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/oracles/paper_exact_lp.h"

#include <unordered_map>
#include <vector>

#include "src/lp/model.h"

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

OptimalBound SolvePaperExact(const trace::Trace& trace, const CacheConfig& config,
                             const OptimalOptions& options) {
  const CostModel cost(config.alpha_f2r);
  Incidence inc = BuildIncidence(trace, config.chunk_bytes);
  auto num_steps = static_cast<int32_t>(trace.requests.size());
  auto num_chunks = static_cast<int32_t>(inc.steps_of_chunk.size());
  const double fill_cost = cost.fill_cost();
  const double redirect_cost = cost.redirect_cost();

  lp::Model model;
  double constant = 0.0;

  // m_{j,t} membership for O(1) lookup.
  std::vector<std::vector<bool>> requested(static_cast<size_t>(num_chunks),
                                           std::vector<bool>(static_cast<size_t>(num_steps), false));
  for (int32_t t = 0; t < num_steps; ++t) {
    for (int32_t j : inc.chunks_of_step[static_cast<size_t>(t)]) {
      requested[static_cast<size_t>(j)][static_cast<size_t>(t)] = true;
    }
  }

  // Variables x_{j,t} (presence), y_{j,t} (|dx|, objective C_F/2), a_t.
  auto x_var = [&](int32_t j, int32_t t) {
    return j * num_steps + t;
  };
  for (int32_t j = 0; j < num_chunks; ++j) {
    for (int32_t t = 0; t < num_steps; ++t) {
      // (10e) at t=0: x_{j,1} <= x_{j,0} = 0 when the chunk is not requested
      // at the first step.
      double upper = (t == 0 && !requested[static_cast<size_t>(j)][0]) ? 0.0 : 1.0;
      model.AddVariable(0.0, upper, 0.0);
    }
  }
  // Fill accounting: with the paper's half-cost objective y >= |dx| and each
  // transition costs C_F/2; with full-cost accounting y >= max(0, dx) (rises
  // only) and each fill costs C_F.
  const bool half_cost = options.use_paper_half_cost;
  const double y_cost = half_cost ? fill_cost / 2.0 : fill_cost;
  int32_t y_base = model.num_columns();
  auto y_var = [&](int32_t j, int32_t t) { return y_base + j * num_steps + t; };
  for (int32_t j = 0; j < num_chunks; ++j) {
    for (int32_t t = 0; t < num_steps; ++t) {
      (void)j;
      model.AddVariable(0.0, 1.0, y_cost);  // (11), (12c)
    }
  }
  int32_t a_base = model.num_columns();
  for (int32_t t = 0; t < num_steps; ++t) {
    auto request_chunks =
        static_cast<double>(inc.chunks_of_step[static_cast<size_t>(t)].size());
    // (1 - a_t) * C_R * |R_t|_c  ==  constant - a_t * C_R * |R_t|_c.
    model.AddVariable(0.0, 1.0, -redirect_cost * request_chunks);
    constant += redirect_cost * request_chunks;
  }

  for (int32_t j = 0; j < num_chunks; ++j) {
    for (int32_t t = 0; t < num_steps; ++t) {
      if (requested[static_cast<size_t>(j)][static_cast<size_t>(t)]) {
        // (10d): x_{j,t} >= a_t.
        int32_t row = model.AddRow(-lp::kLpInfinity, 0.0);
        model.AddCoefficient(row, a_base + t, 1.0);
        model.AddCoefficient(row, x_var(j, t), -1.0);
      } else if (t > 0) {
        // (10e): x_{j,t} <= x_{j,t-1}.
        int32_t row = model.AddRow(-lp::kLpInfinity, 0.0);
        model.AddCoefficient(row, x_var(j, t), 1.0);
        model.AddCoefficient(row, x_var(j, t - 1), -1.0);
      }
      // (12a): y >= x_t - x_{t-1} with x_{j,0-1} = 0.
      int32_t rise = model.AddRow(-lp::kLpInfinity, 0.0);
      model.AddCoefficient(rise, x_var(j, t), 1.0);
      model.AddCoefficient(rise, y_var(j, t), -1.0);
      if (t > 0) {
        model.AddCoefficient(rise, x_var(j, t - 1), -1.0);
      }
      if (half_cost) {
        // (12b): y >= x_{t-1} - x_t (evictions also count transitions).
        int32_t fall = model.AddRow(-lp::kLpInfinity, 0.0);
        model.AddCoefficient(fall, x_var(j, t), -1.0);
        model.AddCoefficient(fall, y_var(j, t), -1.0);
        if (t > 0) {
          model.AddCoefficient(fall, x_var(j, t - 1), 1.0);
        }
      }
    }
  }
  // (10f): capacity.
  for (int32_t t = 0; t < num_steps; ++t) {
    int32_t row = model.AddRow(-lp::kLpInfinity, static_cast<double>(config.disk_capacity_chunks));
    for (int32_t j = 0; j < num_chunks; ++j) {
      model.AddCoefficient(row, x_var(j, t), 1.0);
    }
  }

  lp::Solution lp_solution = lp::SolveModel(model, options.simplex);
  OptimalBound bound;
  bound.status = lp_solution.status;
  bound.total_cost = lp_solution.objective + constant;
  bound.total_requested_chunks = inc.total_requested_chunks;
  bound.efficiency_bound =
      inc.total_requested_chunks == 0
          ? 0.0
          : 1.0 - bound.total_cost / static_cast<double>(inc.total_requested_chunks);
  bound.num_rows = model.num_rows();
  bound.num_columns = model.num_columns();
  bound.stats = lp_solution.stats;
  return bound;
}

}  // namespace vcdn::core
