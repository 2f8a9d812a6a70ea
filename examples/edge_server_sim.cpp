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
//                   [--cache xlru|cafe|psychic|filllru|belady] [--seed N]
//                   [--scale X] [--csv FILE]
//
// With no --cache, all three paper algorithms are compared. --csv dumps the
// hourly time series for plotting.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/core/cache_factory.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/str_util.h"

namespace {

using namespace vcdn;

struct Args {
  std::string server = "Europe";
  double alpha = 2.0;
  double disk_gib = 64.0;
  double days = 14.0;
  double scale = 0.1;
  uint64_t seed = 1;
  std::string cache;  // empty = compare all three
  std::string csv;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if (flag == "--server") {
      if ((value = next()) == nullptr) return false;
      args->server = value;
    } else if (flag == "--alpha") {
      if ((value = next()) == nullptr) return false;
      if (!util::ParseDouble(value, &args->alpha)) return false;
    } else if (flag == "--disk-gib") {
      if ((value = next()) == nullptr) return false;
      if (!util::ParseDouble(value, &args->disk_gib)) return false;
    } else if (flag == "--days") {
      if ((value = next()) == nullptr) return false;
      if (!util::ParseDouble(value, &args->days)) return false;
    } else if (flag == "--scale") {
      if ((value = next()) == nullptr) return false;
      if (!util::ParseDouble(value, &args->scale)) return false;
    } else if (flag == "--seed") {
      if ((value = next()) == nullptr) return false;
      if (!util::ParseUint64(value, &args->seed)) return false;
    } else if (flag == "--cache") {
      if ((value = next()) == nullptr) return false;
      args->cache = value;
    } else if (flag == "--csv") {
      if ((value = next()) == nullptr) return false;
      args->csv = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool KindFromName(const std::string& name, core::CacheKind* kind) {
  if (name == "xlru") *kind = core::CacheKind::kXlru;
  else if (name == "cafe") *kind = core::CacheKind::kCafe;
  else if (name == "psychic") *kind = core::CacheKind::kPsychic;
  else if (name == "filllru") *kind = core::CacheKind::kFillLru;
  else if (name == "belady") *kind = core::CacheKind::kBelady;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 1;
  }

  trace::ServerProfile profile;
  bool found = false;
  for (const auto& p : trace::PaperServerProfiles(args.scale)) {
    if (p.name == args.server) {
      profile = p;
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr,
                 "unknown server %s (try Africa, Asia, Australia, Europe, NorthAmerica, "
                 "SouthAmerica)\n",
                 args.server.c_str());
    return 1;
  }

  trace::WorkloadConfig workload;
  workload.profile = profile;
  workload.duration_seconds = args.days * 86400.0;
  workload.seed = args.seed;
  trace::Trace trace = trace::WorkloadGenerator(workload).Generate().trace;

  core::CacheConfig config;
  config.chunk_bytes = 2ull << 20;
  config.disk_capacity_chunks =
      static_cast<uint64_t>(args.disk_gib * 1024.0 * 1024.0 * 1024.0 /
                            static_cast<double>(config.chunk_bytes));
  config.alpha_f2r = args.alpha;

  std::printf("Server %s: %zu requests over %.1f days, disk %.1f GiB (%llu chunks), alpha=%.2f\n\n",
              profile.name.c_str(), trace.requests.size(), args.days, args.disk_gib,
              static_cast<unsigned long long>(config.disk_capacity_chunks), args.alpha);

  std::vector<core::CacheKind> kinds;
  if (args.cache.empty()) {
    kinds = {core::CacheKind::kXlru, core::CacheKind::kCafe, core::CacheKind::kPsychic};
  } else {
    core::CacheKind kind;
    if (!KindFromName(args.cache, &kind)) {
      std::fprintf(stderr, "unknown cache %s\n", args.cache.c_str());
      return 1;
    }
    kinds = {kind};
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

  if (!args.csv.empty() && !results.empty()) {
    std::ofstream out(args.csv);
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
      std::fprintf(stderr, "error: cannot write %s\n", args.csv.c_str());
      return 1;
    }
    std::printf("\nHourly series written to %s\n", args.csv.c_str());
  }
  return 0;
}
