// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// hierarchy_sim: two-tier CDN simulation (Sec. 10 future work, Sec. 2's
// cache-hierarchy redirect target).
//
// Six regional edge servers redirect their misses to one shared parent site
// with a deeper cache. The edges run ingress-constrained (alpha = 2, the
// paper's default for constrained servers); the parent, being closer to the
// fill origin, runs with cheap ingress (alpha = 0.75). The tool reports how
// much user demand each tier absorbs and what reaches the origin.
//
// Usage: hierarchy_sim [--edge-cache xlru|cafe] [--days N] [--scale X]
//                      [--seed S] [--threads N]
//
// --scale takes (0, 4], --days a positive number. Exits 2 on a usage error:
// a flag it does not take, a missing value or a value out of range.

#include <cstdio>
#include <string>

#include "src/core/cache_factory.h"
#include "src/sim/hierarchy.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  core::CacheKind edge_cache = core::CacheKind::kCafe;
  double days = 10.0;
  double scale = 0.08;
  uint64_t seed = 1;
  uint64_t threads = 0;  // hardware concurrency
  util::Flags flags;
  flags.OneOf("--edge-cache", &edge_cache, {core::CacheKind::kXlru, core::CacheKind::kCafe},
              core::CacheKindFlag);
  flags.Number("--days", &days);
  flags.Number("--scale", &scale, trace::kMaxProfileScale);
  flags.Count("--seed", &seed);
  flags.Count("--threads", &threads);
  util::ExitOnUsageError(flags.Parse(argc, argv));

  // One trace per edge region, generated in parallel; each region draws from
  // its own SplitSeed-decorrelated RNG stream under the single --seed knob.
  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(scale);
  std::vector<trace::WorkloadConfig> workload_configs;
  for (const trace::ServerProfile& profile : profiles) {
    trace::WorkloadConfig config;
    config.profile = profile;
    config.duration_seconds = days * 86400.0;
    config.seed = util::SplitSeed(seed, workload_configs.size());
    workload_configs.push_back(std::move(config));
  }
  trace::ParallelGenerateOptions generate_options;
  generate_options.threads = static_cast<size_t>(threads);
  std::vector<trace::Trace> edge_traces;
  for (trace::GeneratedWorkload& workload :
       trace::GenerateWorkloads(workload_configs, generate_options)) {
    edge_traces.push_back(std::move(workload.trace));
  }

  sim::HierarchyConfig config;
  config.threads = static_cast<size_t>(threads);
  config.edge_kind = edge_cache;
  config.edge_config.chunk_bytes = 2ull << 20;
  config.edge_config.disk_capacity_chunks = 3000;
  config.edge_config.alpha_f2r = 2.0;  // constrained edges
  config.parent_kind = core::CacheKind::kCafe;
  config.parent_config.chunk_bytes = 2ull << 20;
  config.parent_config.disk_capacity_chunks = 12000;  // deeper parent cache
  config.parent_config.alpha_f2r = 0.75;              // cheap ingress near origin

  sim::HierarchyResult result = sim::RunHierarchy(edge_traces, config);

  std::printf("Two-tier CDN: 6 edges (%s, alpha=2, %llu chunks) -> parent (%s, alpha=0.75, %llu "
              "chunks)\n\n",
              std::string(core::CacheKindFlag(edge_cache)).c_str(),
              static_cast<unsigned long long>(config.edge_config.disk_capacity_chunks),
              result.parent.cache_name.c_str(),
              static_cast<unsigned long long>(config.parent_config.disk_capacity_chunks));

  util::TextTable edges({"edge", "efficiency", "ingress %", "redirect %"});
  for (size_t i = 0; i < result.edges.size(); ++i) {
    const auto& e = result.edges[i];
    edges.AddRow({profiles[i].name, util::FormatPercent(e.efficiency),
                  util::FormatPercent(e.ingress_fraction),
                  util::FormatPercent(e.redirect_fraction)});
  }
  std::printf("%s\n", edges.ToString().c_str());

  std::printf("Parent tier: efficiency %s, ingress %s, redirect-to-origin %s\n\n",
              util::FormatPercent(result.parent.efficiency).c_str(),
              util::FormatPercent(result.parent.ingress_fraction).c_str(),
              util::FormatPercent(result.parent.redirect_fraction).c_str());

  std::printf("CDN-wide (steady state):\n");
  std::printf("  user demand:            %s\n", util::HumanBytes(result.requested_bytes).c_str());
  std::printf("  served at the edge:     %s (%s)\n",
              util::HumanBytes(result.edge_served_bytes).c_str(),
              util::FormatPercent(result.edge_hit_fraction).c_str());
  std::printf("  absorbed by the parent: %s\n",
              util::HumanBytes(result.parent_served_bytes).c_str());
  std::printf("  served by the CDN:      %s\n",
              util::FormatPercent(result.cdn_hit_fraction).c_str());
  std::printf("  reached the origin:     %s\n", util::HumanBytes(result.origin_bytes).c_str());
  std::printf("  edge ingress:           %s\n", util::HumanBytes(result.edge_filled_bytes).c_str());
  std::printf("  parent ingress:         %s\n",
              util::HumanBytes(result.parent_filled_bytes).c_str());
  return 0;
}
