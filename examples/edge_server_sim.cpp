// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// edge_server_sim: a configurable single-server what-if tool.
//
// Models the operational question an SRE of the paper's CDN would ask: given
// this server's request profile, how do disk size and the fill-to-redirect
// preference alpha_F2R trade ingress against redirects, and which algorithm
// should the server run?
//
// Usage:
//   edge_server_sim [--server NAME] [--alpha X] [--disk-gib N] [--days N]
//                   [--cache xlru|cafe|psychic|fill-lru|belady] [--seed N]
//                   [--scale X] [--csv FILE]
//
// NAME is a paper server (Africa, Asia, Australia, Europe, NorthAmerica or
// SouthAmerica). With no --cache, all three paper algorithms are compared.
// --csv dumps the hourly time series for plotting. Exits 2 on a usage error
// (a flag it does not take, a missing value, a number out of range: --scale
// takes (0, 4], --disk-gib at least one 2 MiB chunk, the others a positive
// number) and 1 when the CSV cannot be written.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "src/core/cache_factory.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  using core::CacheKind;
  std::string server = "Europe";
  double alpha = 2.0;
  double disk_gib = 64.0;
  double days = 14.0;
  double scale = 0.1;
  uint64_t seed = 1;
  std::optional<CacheKind> only;  // --cache; none compares all three
  std::string csv;
  util::Flags flags;
  flags.OneOf("--server", &server, trace::PaperServerNames());
  flags.Number("--alpha", &alpha);
  flags.Number("--disk-gib", &disk_gib);
  flags.Number("--days", &days);
  flags.Number("--scale", &scale, trace::kMaxProfileScale);
  flags.Count("--seed", &seed);
  flags.OneOf("--cache", &only,
              {CacheKind::kXlru, CacheKind::kCafe, CacheKind::kPsychic, CacheKind::kFillLru,
               CacheKind::kBelady},
              [](std::optional<CacheKind> kind) { return core::CacheKindFlag(*kind); });
  flags.Text("--csv", &csv);
  util::ExitOnUsageError(flags.Parse(argc, argv));

  core::CacheConfig config;
  config.chunk_bytes = 2ull << 20;
  config.disk_capacity_chunks =
      static_cast<uint64_t>(disk_gib * 1024.0 * 1024.0 * 1024.0 /
                            static_cast<double>(config.chunk_bytes));
  config.alpha_f2r = alpha;
  if (config.disk_capacity_chunks == 0) {
    util::ExitOnUsageError(util::InvalidArgumentError(
        "invalid value for flag '--disk-gib' (need at least one 2 MiB chunk)"));
  }

  const trace::ServerProfile profile = trace::PaperServerProfile(server, scale);
  trace::WorkloadConfig workload;
  workload.profile = profile;
  workload.duration_seconds = days * 86400.0;
  workload.seed = seed;
  trace::Trace trace = trace::WorkloadGenerator(workload).Generate().trace;

  std::printf("Server %s: %zu requests over %.1f days, disk %.1f GiB (%llu chunks), alpha=%.2f\n\n",
              profile.name.c_str(), trace.requests.size(), days, disk_gib,
              static_cast<unsigned long long>(config.disk_capacity_chunks), alpha);

  std::vector<CacheKind> kinds = {CacheKind::kXlru, CacheKind::kCafe, CacheKind::kPsychic};
  if (only.has_value()) {
    kinds = {*only};
  }

  util::TextTable table({"cache", "efficiency", "ingress %", "redirect %", "evictions"});
  std::vector<sim::ReplayResult> results;
  for (auto kind : kinds) {
    auto cache = core::MakeCache(kind, config);
    sim::ReplayResult result = sim::Replay(*cache, trace);
    table.AddRow({result.cache_name, util::FormatPercent(result.efficiency),
                  util::FormatPercent(result.ingress_fraction),
                  util::FormatPercent(result.redirect_fraction),
                  std::to_string(result.steady.evicted_chunks)});
    results.push_back(std::move(result));
  }
  std::printf("%s", table.ToString().c_str());

  if (!csv.empty() && !results.empty()) {
    std::ofstream out(csv);
    out << "hour,cache,requested_bytes,served_bytes,redirected_bytes,filled_bytes\n";
    for (const auto& r : results) {
      for (size_t h = 0; h < r.series.size(); ++h) {
        out << h << "," << r.cache_name << "," << r.series[h].requested_bytes << ","
            << r.series[h].served_bytes << "," << r.series[h].redirected_bytes << ","
            << r.series[h].filled_bytes << "\n";
      }
    }
    out.close();
    // A dropped dump is an error, not a success message (docs/OBSERVABILITY.md).
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", csv.c_str());
      return 1;
    }
    std::printf("\nHourly series written to %s\n", csv.c_str());
  }
  return 0;
}
