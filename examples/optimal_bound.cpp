// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// optimal_bound: how good could ANY caching algorithm be on this workload?
//
// Generates a short synthetic trace, downsamples it per the paper's Sec. 9.1
// recipe, and computes three reference points with the offline machinery:
//
//   * the LP-relaxed Optimal bound (Sec. 7) -- a certified efficiency ceiling;
//   * the exact IP optimum via branch & bound (Sec. 10 future work);
//   * Psychic Cache (Sec. 8) -- the paper's fast clairvoyant heuristic;
//
// and contrasts them with the online algorithms, answering the paper's
// motivating question: "how much of the inefficiency to blame on the caching
// algorithms and how much on the nature of the data".
//
// Usage: optimal_bound [--alpha X] [--files N] [--requests N] [--seed N]
//
// --alpha takes a positive number, --files a positive integer, --requests
// 0 (uncapped) or more. Exits 2 on a usage error: a flag it does not take, a
// missing value or a value out of range.

#include <cstdio>
#include <string>
#include <unordered_set>

#include "src/core/cache_factory.h"
#include "src/core/optimal_cache.h"
#include "src/sim/replay.h"
#include "src/trace/downsample.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  double alpha = 2.0;
  uint64_t num_files = 25;
  uint64_t max_requests = 120;
  uint64_t seed = 1;
  util::Flags flags;
  flags.Number("--alpha", &alpha);
  flags.Count("--files", &num_files, /*min=*/1);
  flags.Count("--requests", &max_requests);
  flags.Count("--seed", &seed);
  util::ExitOnUsageError(flags.Parse(argc, argv));

  // A two-day trace, downsampled like the paper's Optimal experiment.
  trace::WorkloadConfig workload;
  workload.profile = trace::EuropeProfile(0.15);
  workload.duration_seconds = 2.0 * 86400.0;
  workload.seed = seed;
  trace::Trace full = trace::WorkloadGenerator(workload).Generate().trace;

  trace::DownsampleOptions ds;
  ds.num_files = static_cast<size_t>(num_files);
  ds.file_cap_bytes = 20ull << 20;
  ds.max_requests = static_cast<size_t>(max_requests);
  trace::DownsampledTrace down = trace::DownsampleForOptimal(full, ds);

  core::CacheConfig config;
  config.chunk_bytes = 2ull << 20;
  config.alpha_f2r = alpha;
  {
    std::unordered_set<uint64_t> chunks;
    for (const auto& r : down.trace.requests) {
      core::ChunkRange range = core::ToChunkRange(r, config.chunk_bytes);
      for (uint32_t c = range.first; c <= range.last; ++c) {
        chunks.insert(r.video * 4096 + c);
      }
    }
    config.disk_capacity_chunks = std::max<uint64_t>(16, chunks.size() / 10);
    std::printf("Instance: %zu requests, %zu distinct chunks, disk %llu chunks, alpha %.2f\n\n",
                down.trace.requests.size(), chunks.size(),
                static_cast<unsigned long long>(config.disk_capacity_chunks), alpha);
  }

  core::OptimalCacheSolver solver(config, core::OptimalOptions{});
  core::OptimalBound bound = solver.SolveBound(down.trace);
  std::printf(
      "LP-relaxed Optimal bound:   efficiency <= %s  (cost %.1f, %d rows, %lld iters, "
      "%lld refactorizations)\n",
      util::FormatPercent(bound.efficiency_bound).c_str(), bound.total_cost, bound.num_rows,
      static_cast<long long>(bound.stats.iterations),
      static_cast<long long>(bound.stats.refactorizations));

  core::OptimalExactResult exact = solver.SolveExact(down.trace, /*max_nodes=*/50000);
  if (exact.status == lp::SolveStatus::kOptimal) {
    std::printf(
        "Exact IP optimum (B&B):     efficiency  = %s  (%lld nodes, %lld simplex iters, "
        "gap %.2f)\n",
        util::FormatPercent(exact.efficiency).c_str(),
        static_cast<long long>(exact.nodes_explored),
        static_cast<long long>(exact.stats.iterations), exact.total_cost - bound.total_cost);
  } else {
    std::printf("Exact IP optimum (B&B):     %s within node budget\n",
                lp::SolveStatusName(exact.status));
  }

  sim::ReplayOptions options;
  options.measurement_start_fraction = 0.0;  // offline-style: no warmup cut
  util::TextTable table({"algorithm", "chunk efficiency", "vs LP bound"});
  for (auto kind : {core::CacheKind::kPsychic, core::CacheKind::kCafe, core::CacheKind::kXlru,
                    core::CacheKind::kFillLru}) {
    auto cache = core::MakeCache(kind, config);
    sim::ReplayResult result = sim::Replay(*cache, down.trace, options);
    double efficiency = result.totals.ChunkEfficiency(cache->cost_model());
    table.AddRow({result.cache_name, util::FormatPercent(efficiency),
                  util::FormatPercent(efficiency - bound.efficiency_bound)});
  }
  std::printf("\n%s", table.ToString().c_str());
  std::printf(
      "\nEverything below the LP bound line is, per the paper, inefficiency of the\n"
      "*algorithm*; the rest of the distance to 100%% is the nature of the data.\n");
  return 0;
}
