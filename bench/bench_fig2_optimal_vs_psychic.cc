// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Figure 2: "Performance of Psychic Cache compared to (LP-relaxed) Optimal
// Cache" -- per server, a two-day trace downsampled to a representative
// subset of files (selected uniformly from the hit-count-sorted list), file
// sizes capped at 20 MB, disk sized to 5% of all requested chunks.
//
//   (a) cache efficiencies averaged over the 6 servers;
//   (b) avg/min/max of (LP-relaxed Optimal - Psychic) across servers.
//
// Paper's reported result: Psychic lands on average within 5-6% of the
// LP-relaxed bound.
//
// The paper used 100 files (a commercial LP solver); the default here is a
// smaller instance so the bundled simplex finishes in seconds -- set
// VCDN_FIG2_FILES / VCDN_FIG2_REQUESTS for bigger runs (100 / 0 reproduces
// the paper's setting).

#include <cstdio>
#include <unordered_set>

#include "bench/bench_common.h"
#include "src/core/optimal_cache.h"
#include "src/core/psychic_cache.h"
#include "src/trace/downsample.h"
#include "src/util/stats.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  bench::BenchFlags flags = bench::FlagsFromArgs(argc, argv);
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::BenchObs obs(argc, argv);
  obs.SetWorkload("fig2 optimal vs psychic", scale.seed);
  const auto num_files = static_cast<size_t>(bench::EnvCount("VCDN_FIG2_FILES", 40, /*min=*/1));
  // 0 leaves the request count uncapped.
  const auto max_requests = static_cast<size_t>(bench::EnvCount("VCDN_FIG2_REQUESTS", 160));
  bench::PrintHeader(
      "Figure 2: Psychic vs LP-relaxed Optimal (downsampled two-day traces)",
      "Psychic efficiency is on average within 5-6% of the LP-relaxed optimal bound",
      scale);
  std::printf("Downsampling: %zu files, request cap %zu (paper: 100 files, uncapped)\n\n",
              num_files, max_requests);

  const double alphas[] = {0.5, 1.0, 2.0, 4.0};
  util::TextTable per_server({"server", "alpha", "requests", "chunks", "disk", "Optimal bound",
                              "Psychic", "delta"});
  // Per-alpha delta stats across servers for Fig. 2(b).
  std::vector<util::StatAccumulator> delta_stats(4);
  std::vector<util::StatAccumulator> psychic_avg(4);
  std::vector<util::StatAccumulator> optimal_avg(4);

  // Two days of each server's trace (synthetic stand-in for the logs),
  // generated in parallel across --threads workers.
  bench::BenchScale two_days = scale;
  two_days.days = 2.0;
  std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(scale.workload_scale);
  std::vector<trace::Trace> two_day_traces = bench::MakeServerTraces(profiles, two_days, flags);

  for (size_t s = 0; s < profiles.size(); ++s) {
    const trace::ServerProfile& profile = profiles[s];
    trace::Trace& full = two_day_traces[s];

    trace::DownsampleOptions options;
    options.window_seconds = 2.0 * 86400.0;
    options.num_files = num_files;
    options.file_cap_bytes = 20ull << 20;
    options.max_requests = max_requests;
    trace::DownsampledTrace down = trace::DownsampleForOptimal(full, options);
    if (down.trace.requests.size() < 20) {
      std::printf("  %s: too few requests after downsampling, skipped\n", profile.name.c_str());
      continue;
    }

    // Disk = 5% of all requested chunks.
    core::CacheConfig config;
    config.chunk_bytes = core::kDefaultChunkBytes;
    {
      // Count distinct requested chunks.
      std::unordered_set<uint64_t> chunks;
      for (const auto& r : down.trace.requests) {
        core::ChunkRange range = core::ToChunkRange(r, config.chunk_bytes);
        for (uint32_t c = range.first; c <= range.last; ++c) {
          chunks.insert(r.video * 1000 + c);
        }
      }
      // 5% of distinct requested chunks, floored so the disk can hold at
      // least a couple of typical requests (the paper's 100-file instances
      // give ~50 chunks; tiny downsampled instances would otherwise get a
      // disk smaller than one request, making admission degenerate).
      config.disk_capacity_chunks = std::max<uint64_t>(24, chunks.size() / 20);
    }

    for (size_t ai = 0; ai < 4; ++ai) {
      double alpha = alphas[ai];
      config.alpha_f2r = alpha;

      core::OptimalCacheSolver solver(config);
      core::OptimalBound bound = solver.SolveBound(down.trace);

      core::PsychicCache psychic(config);
      sim::ReplayOptions replay_options;
      replay_options.measurement_start_fraction = 0.0;  // offline caches need no warmup
      sim::ReplayResult result = sim::Replay(psychic, down.trace, replay_options);
      double psychic_eff = result.totals.ChunkEfficiency(psychic.cost_model());

      if (bound.status != lp::SolveStatus::kOptimal) {
        std::printf("  %s alpha=%.2g: LP status %s, skipped\n", profile.name.c_str(), alpha,
                    lp::SolveStatusName(bound.status));
        continue;
      }
      double delta = bound.efficiency_bound - psychic_eff;
      delta_stats[ai].Add(delta);
      psychic_avg[ai].Add(psychic_eff);
      optimal_avg[ai].Add(bound.efficiency_bound);
      per_server.AddRow({profile.name, util::FormatDouble(alpha, 2),
                         std::to_string(down.trace.requests.size()),
                         std::to_string(bound.total_requested_chunks),
                         std::to_string(config.disk_capacity_chunks),
                         util::FormatPercent(bound.efficiency_bound),
                         util::FormatPercent(psychic_eff), util::FormatPercent(delta)});
    }
  }
  std::printf("%s\n", per_server.ToString().c_str());

  std::printf("Figure 2(a): efficiencies averaged over the servers\n");
  util::TextTable avg({"alpha", "LP-relaxed Optimal (avg)", "Psychic (avg)"});
  for (size_t ai = 0; ai < 4; ++ai) {
    avg.AddRow({util::FormatDouble(alphas[ai], 2), util::FormatPercent(optimal_avg[ai].mean()),
                util::FormatPercent(psychic_avg[ai].mean())});
  }
  std::printf("%s\n", avg.ToString().c_str());

  std::printf("Figure 2(b): delta efficiency (Optimal - Psychic) across servers\n");
  util::TextTable delta({"alpha", "avg", "min", "max"});
  for (size_t ai = 0; ai < 4; ++ai) {
    delta.AddRow({util::FormatDouble(alphas[ai], 2), util::FormatPercent(delta_stats[ai].mean()),
                  util::FormatPercent(delta_stats[ai].min()),
                  util::FormatPercent(delta_stats[ai].max())});
  }
  std::printf("%s\n", delta.ToString().c_str());
  std::printf("Paper: the average delta is 5-6%%; the LP bound always dominates (delta >= 0).\n");

  // Integrality gap spot-check (Sec. 9.1: "an exact optimal solution is also
  // within a gap of this theoretical bound as it is obtained through LP
  // relaxation, a nonzero gap as we have observed"). Solved by the exact
  // branch-and-bound IP on a further-reduced instance.
  std::printf("\nIntegrality gap spot-check (exact IP vs LP relaxation, tiny instance):\n");
  {
    trace::Trace full =
        bench::MakeServerTrace(trace::EuropeProfile(scale.workload_scale), two_days);
    trace::DownsampleOptions options;
    options.num_files = 10;
    options.file_cap_bytes = 20ull << 20;
    options.max_requests = 60;
    trace::DownsampledTrace tiny = trace::DownsampleForOptimal(full, options);
    if (tiny.trace.requests.size() >= 10) {
      core::CacheConfig config;
      config.chunk_bytes = core::kDefaultChunkBytes;
      config.disk_capacity_chunks = 7;
      config.alpha_f2r = 2.0;
      core::OptimalCacheSolver solver(config, core::OptimalOptions{});
      core::OptimalBound lp_bound = solver.SolveBound(tiny.trace);
      core::OptimalExactResult exact = solver.SolveExact(tiny.trace, /*max_nodes=*/20000);
      if (lp_bound.status == lp::SolveStatus::kOptimal &&
          exact.status == lp::SolveStatus::kOptimal) {
        std::printf("  LP relaxation:  cost %.3f (efficiency bound %s)\n", lp_bound.total_cost,
                    util::FormatPercent(lp_bound.efficiency_bound).c_str());
        std::printf("  Exact IP (B&B): cost %.3f (efficiency %s), %lld nodes\n", exact.total_cost,
                    util::FormatPercent(exact.efficiency).c_str(),
                    static_cast<long long>(exact.nodes_explored));
        std::printf("  Integrality gap: %.3f chunks of cost (%.2f%% of the bound)\n",
                    exact.total_cost - lp_bound.total_cost,
                    lp_bound.total_cost > 0
                        ? (exact.total_cost - lp_bound.total_cost) / lp_bound.total_cost * 100.0
                        : 0.0);
      } else {
        std::printf("  (skipped: LP %s, IP %s)\n", lp::SolveStatusName(lp_bound.status),
                    lp::SolveStatusName(exact.status));
      }
    }
  }
  return obs.WriteIfRequested().ok() ? 0 : 1;
}
