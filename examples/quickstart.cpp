// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Quickstart: the smallest end-to-end use of libvcdn.
//
//   1. generate a synthetic one-week trace for a European edge server,
//   2. run the paper's three caches (xLRU, Cafe, Psychic) on a small disk
//      with the ingress-constrained preference alpha_F2R = 2,
//   3. print the steady-state efficiency / ingress / redirect numbers.
//
// Build & run:  ./build/examples/quickstart  (no flags: any argument exits 2)

#include <cstdio>

#include "src/core/cache_factory.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  util::ExitOnUsageError(util::Flags().Parse(argc, argv));

  // 1. A scaled-down European server: ~10k requests over a week.
  trace::WorkloadConfig workload;
  workload.profile = trace::EuropeProfile(/*scale=*/0.1);
  workload.duration_seconds = 7.0 * 86400.0;
  workload.seed = 42;
  trace::Trace trace = trace::WorkloadGenerator(workload).Generate().trace;
  std::printf("Generated %zu requests for %zu distinct videos (%s)\n\n", trace.requests.size(),
              trace.DistinctVideos(), util::HumanBytes(trace.TotalRequestedBytes()).c_str());

  // 2. An ingress-constrained edge cache: 8 GiB disk in 2 MB chunks.
  core::CacheConfig config;
  config.chunk_bytes = 2ull << 20;
  config.disk_capacity_chunks = 4096;
  config.alpha_f2r = 2.0;  // cache-filled bytes cost twice redirected bytes

  // 3. Replay and compare.
  util::TextTable table({"cache", "efficiency", "ingress %", "redirect %"});
  for (auto kind : {core::CacheKind::kXlru, core::CacheKind::kCafe, core::CacheKind::kPsychic}) {
    auto cache = core::MakeCache(kind, config);
    sim::ReplayResult result = sim::Replay(*cache, trace);
    table.AddRow({result.cache_name, util::FormatPercent(result.efficiency),
                  util::FormatPercent(result.ingress_fraction),
                  util::FormatPercent(result.redirect_fraction)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\n(efficiency = Eq. (2) of the paper: 1 - fill%%*C_F - redirect%%*C_R)\n");
  return 0;
}
