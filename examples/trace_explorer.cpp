// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// trace_explorer: generate, inspect and export synthetic CDN traces.
//
// Prints the workload statistics the paper's arguments rest on -- the Zipf
// popularity curve, the diurnal demand cycle, intra-file (chunk) skew and
// catalog churn -- and optionally writes the trace for replay elsewhere: as
// CSV for real tooling (src/trace/trace_io.h) or as a one-section VCDNTRS2
// file (src/trace/trace_file.h).
//
// Usage: trace_explorer [--server NAME] [--days N] [--seed N] [--scale X]
//                       [--out-csv FILE] [--out-bin FILE]
//
// NAME is a paper server (Africa, Asia, Australia, Europe, NorthAmerica or
// SouthAmerica); --scale takes (0, 4] and --days a positive number. Exits 2
// on a usage error (a flag it does not take, a missing value, a value out of
// range) and 1 when an export fails.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/chunk.h"
#include "src/trace/analysis.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/str_util.h"

namespace {
using namespace vcdn;

void PrintPopularityCurve(const trace::Trace& trace) {
  std::vector<uint64_t> counts = trace::PopularityCurve(trace);
  std::printf("\nPopularity (hits by video rank; expect a Zipf-like head and long tail):\n");
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  uint64_t cumulative = 0;
  size_t next_rank = 1;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (i + 1 == next_rank) {
      std::printf("  top %6zu videos (%5.1f%%) -> %5.1f%% of requests\n", i + 1,
                  100.0 * static_cast<double>(i + 1) / static_cast<double>(counts.size()),
                  100.0 * static_cast<double>(cumulative) / static_cast<double>(total));
      next_rank *= 10;
    }
  }
}

void PrintDiurnalCycle(const trace::Trace& trace) {
  std::vector<uint64_t> per_hour = trace::DemandByHourOfDay(trace);
  uint64_t peak = *std::max_element(per_hour.begin(), per_hour.end());
  std::printf("\nDemand by hour of day (UTC), peak/trough = %.2f:\n",
              trace::DiurnalPeakToTrough(trace));
  for (int h = 0; h < 24; ++h) {
    int bar = peak > 0 ? static_cast<int>(per_hour[static_cast<size_t>(h)] * 50 / peak) : 0;
    std::printf("  %02d:00 %s\n", h, std::string(static_cast<size_t>(bar), '#').c_str());
  }
}

void PrintChunkSkew(const trace::Trace& trace) {
  std::vector<uint64_t> by_position =
      trace::AccessesByChunkPosition(trace, core::kDefaultChunkBytes, 20);
  std::printf("\nIntra-file skew (accesses by chunk position; first chunks hottest):\n");
  uint64_t peak = by_position[0] > 0 ? by_position[0] : 1;
  for (int c = 0; c < 10; ++c) {
    int bar = static_cast<int>(by_position[static_cast<size_t>(c)] * 50 / peak);
    std::printf("  chunk %2d %s\n", c, std::string(static_cast<size_t>(bar), '#').c_str());
  }
}

void PrintWorkingSet(const trace::Trace& trace) {
  std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0};
  std::vector<uint64_t> growth =
      trace::WorkingSetGrowth(trace, core::kDefaultChunkBytes, fractions);
  std::printf("\nWorking set growth (distinct requested chunks):\n");
  for (size_t i = 0; i < fractions.size(); ++i) {
    std::printf("  %3.0f%% of trace -> %llu chunks (%s)\n", fractions[i] * 100.0,
                static_cast<unsigned long long>(growth[i]),
                util::HumanBytes(growth[i] * core::kDefaultChunkBytes).c_str());
  }
  std::printf("\nDisk skyline (footnote 1's diminishing returns):\n");
  for (double share : {0.5, 0.8, 0.9, 0.99}) {
    uint64_t bytes = trace::BytesForAccessShare(trace, core::kDefaultChunkBytes, share);
    std::printf("  capture %2.0f%% of chunk accesses -> needs %s of perfectly chosen disk\n",
                share * 100.0, util::HumanBytes(bytes).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string server = "Europe";
  double days = 7.0;
  double scale = 0.1;
  uint64_t seed = 1;
  std::string out_csv;
  std::string out_bin;
  util::Flags flags;
  flags.OneOf("--server", &server, trace::PaperServerNames());
  flags.Number("--days", &days);
  flags.Number("--scale", &scale, trace::kMaxProfileScale);
  flags.Count("--seed", &seed);
  flags.Text("--out-csv", &out_csv);
  flags.Text("--out-bin", &out_bin);
  util::ExitOnUsageError(flags.Parse(argc, argv));

  trace::WorkloadConfig config;
  config.profile = trace::PaperServerProfile(server, scale);
  config.duration_seconds = days * 86400.0;
  config.seed = seed;
  trace::GeneratedWorkload workload = trace::WorkloadGenerator(config).Generate();
  const trace::Trace& trace = workload.trace;

  std::printf("Server %s, %.1f days, seed %llu\n", server.c_str(), days,
              static_cast<unsigned long long>(seed));
  std::printf("  requests:        %zu\n", trace.requests.size());
  std::printf("  distinct videos: %zu (catalog %zu)\n", trace.DistinctVideos(),
              workload.catalog.videos.size());
  std::printf("  requested bytes: %s\n", util::HumanBytes(trace.TotalRequestedBytes()).c_str());
  std::printf("  catalog bytes:   %s\n", util::HumanBytes(workload.catalog.TotalBytes()).c_str());

  PrintPopularityCurve(trace);
  PrintDiurnalCycle(trace);
  PrintChunkSkew(trace);
  PrintWorkingSet(trace);

  // A dropped export must not look like a successful run.
  bool exported = true;
  if (!out_csv.empty()) {
    util::Status status = trace::WriteCsvFile(trace, out_csv);
    std::printf("\nCSV export to %s: %s\n", out_csv.c_str(), status.ToString().c_str());
    exported = exported && status.ok();
  }
  if (!out_bin.empty()) {
    util::Status status =
        trace::WriteTraceFile({&trace}, out_bin, {workload.catalog.videos.size()});
    std::printf("VCDNTRS2 export to %s: %s\n", out_bin.c_str(), status.ToString().c_str());
    exported = exported && status.ok();
  }
  return exported ? 0 : 1;
}
