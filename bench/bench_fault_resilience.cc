// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fault resilience: exercises the paper's "lines of defense" under failure.
//
// Part 1 sweeps seeded outage schedules (outage fraction x algorithm) over a
// multi-server fleet and checks the determinism contract under fault
// injection: the FleetDigest at --threads N must equal the sequential run's
// digest for every point, with the digest covering the degraded-mode
// accounting (unavailable requests/bytes per shard and series bucket).
//
// Part 2 runs the two-tier hierarchy through a parent-outage window and
// prints the per-bucket view of the origin absorbing the redirect stream
// while the second defense line is down, then recovering.
//
// Flags: --threads N (parallel run of the digest check, default 7),
// --repeat K, --scale X and the obs flags (bench_common.h); a usage error
// exits 2.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/fault/fault.h"
#include "src/sim/hierarchy.h"
#include "src/util/check.h"
#include "src/util/str_util.h"

namespace {

using namespace vcdn;

std::string DigestHex(uint64_t digest) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(digest));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseBenchFlags(
      argc, argv, bench::kThreads | bench::kRepeat | bench::kScale | bench::kObs);
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::BenchObs obs(flags);
  obs.SetWorkload("fault resilience", scale.seed);
  const size_t parallel_threads = flags.threads == 0 ? 7 : flags.threads;
  bench::PrintHeader(
      "Fault resilience: seeded outage schedules over the defense lines",
      "degraded-mode replay stays bit-identical across thread counts; during "
      "a parent outage the origin absorbs the redirect stream, then recovers",
      scale);

  bench::BenchFlags gen_flags = flags;
  gen_flags.threads = 0;
  std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(scale.workload_scale);
  std::vector<trace::Trace> traces = bench::MakeServerTraces(profiles, scale, gen_flags);
  core::CacheConfig config = bench::PaperConfig(1.0, 2.0, scale);

  // --- Part 1: fleet determinism under fault injection -----------------------
  std::printf("Fleet digest check: sequential vs %zu threads, per (outage fraction, algorithm)\n\n",
              parallel_threads);
  const double outage_fractions[] = {0.0, 0.1, 0.25, 0.5};
  const core::CacheKind kinds[] = {core::CacheKind::kXlru, core::CacheKind::kCafe,
                                   core::CacheKind::kFillLru};
  util::TextTable table({"outage frac", "algorithm", "unavailable", "availability",
                         "digest", "match"});
  bool all_match = true;

  for (double outage_fraction : outage_fractions) {
    fault::RandomFaultOptions fault_options;
    fault_options.duration = scale.duration_seconds();
    fault_options.num_edges = traces.size();
    fault_options.outages_per_edge = outage_fraction > 0.0 ? 2 : 0;
    fault_options.outage_fraction = outage_fraction;
    fault_options.restarts_per_edge = outage_fraction > 0.0 ? 1 : 0;
    fault_options.degrades_per_edge = outage_fraction > 0.0 ? 1 : 0;
    fault::FaultSchedule schedule = MakeRandomFaultSchedule(scale.seed, fault_options);
    VCDN_CHECK(schedule.Validate().ok());

    for (core::CacheKind kind : kinds) {
      std::vector<sim::FleetServer> servers;
      for (size_t s = 0; s < traces.size(); ++s) {
        servers.push_back(sim::FleetServer{profiles[s].name, kind, config, &traces[s], {}});
      }
      auto run = [&](size_t threads) {
        sim::FleetOptions options;
        options.threads = threads;
        if (!schedule.empty()) {
          options.replay.faults = &schedule;
        }
        return sim::RunFleet(servers, options);
      };
      sim::FleetResult sequential = run(1);
      const uint64_t reference = sim::FleetDigest(sequential);
      uint64_t parallel = 0;
      for (size_t k = 0; k < flags.repeat; ++k) {
        parallel = sim::FleetDigest(run(parallel_threads));
        if (parallel != reference) {
          break;
        }
      }
      const bool match = parallel == reference;
      all_match = all_match && match;
      const double availability =
          sequential.totals.requests > 0
              ? 1.0 - static_cast<double>(sequential.totals.unavailable_requests) /
                          static_cast<double>(sequential.totals.requests)
              : 1.0;
      table.AddRow({util::FormatDouble(outage_fraction, 2),
                    std::string(core::CacheKindName(kind)),
                    std::to_string(sequential.totals.unavailable_requests),
                    util::FormatDouble(availability, 4), DigestHex(reference),
                    match ? "OK" : "MISMATCH"});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Determinism under faults (threads 1 vs %zu): %s\n\n", parallel_threads,
              all_match ? "OK" : "MISMATCH");

  // --- Part 2: parent outage absorbed by the origin --------------------------
  const double duration = scale.duration_seconds();
  fault::FaultSchedule parent_schedule;
  {
    fault::FaultEvent outage;
    outage.kind = fault::FaultKind::kParentOutage;
    outage.start = 0.60 * duration;
    outage.end = 0.70 * duration;
    parent_schedule.Add(outage);
    VCDN_CHECK(parent_schedule.Validate().ok());
  }
  const size_t num_edges = std::min<size_t>(3, traces.size());
  std::vector<trace::Trace> edge_traces(traces.begin(),
                                        traces.begin() + static_cast<long>(num_edges));

  sim::HierarchyConfig hierarchy;
  hierarchy.edge_kind = core::CacheKind::kCafe;
  hierarchy.edge_config = bench::PaperConfig(0.5, 2.0, scale);
  hierarchy.parent_kind = core::CacheKind::kCafe;
  hierarchy.parent_config = bench::PaperConfig(2.0, 1.0, scale);
  hierarchy.replay = obs.replay_options();
  hierarchy.replay.bucket_seconds = duration / 20.0;
  hierarchy.replay.faults = &parent_schedule;
  hierarchy.threads = parallel_threads;
  sim::HierarchyResult result = sim::RunHierarchy(edge_traces, hierarchy);

  std::printf("Parent outage over [%.0f, %.0f) s, %zu edges; per-bucket origin view:\n\n",
              0.60 * duration, 0.70 * duration, num_edges);
  util::TextTable outage_table({"bucket", "window", "parent-served B", "outage-origin B"});
  const size_t buckets = std::max(result.outage_origin_series.size(), result.parent.series.size());
  for (size_t b = 0; b < buckets; ++b) {
    const double bucket_start = static_cast<double>(b) * hierarchy.replay.bucket_seconds;
    const bool in_window = bucket_start >= 0.60 * duration && bucket_start < 0.70 * duration;
    uint64_t parent_served = 0;
    for (const sim::SeriesPoint& point : result.parent.series) {
      if (point.bucket_start == bucket_start) {
        parent_served = point.served_bytes;
      }
    }
    const double outage_origin =
        b < result.outage_origin_series.size() ? result.outage_origin_series[b] : 0.0;
    outage_table.AddRow({std::to_string(b), in_window ? "OUTAGE" : "",
                         std::to_string(parent_served),
                         util::FormatDouble(outage_origin, 0)});
  }
  std::printf("%s\n", outage_table.ToString().c_str());
  std::printf("availability %.4f, parent-outage bytes %llu, origin cost %.0f "
              "(origin bytes %llu)\n",
              result.availability,
              static_cast<unsigned long long>(result.parent_outage_bytes), result.origin_cost,
              static_cast<unsigned long long>(result.origin_bytes));

  // The origin must have absorbed traffic inside the window and none outside
  // it (no edge outages in this schedule).
  bool absorbed = result.parent_outage_bytes > 0;
  bool recovered = true;
  for (size_t b = 0; b < result.outage_origin_series.size(); ++b) {
    const double bucket_start = static_cast<double>(b) * hierarchy.replay.bucket_seconds;
    const bool may_overlap_window = bucket_start + hierarchy.replay.bucket_seconds >
                                        0.60 * duration &&
                                    bucket_start < 0.70 * duration;
    if (!may_overlap_window && result.outage_origin_series[b] != 0.0) {
      recovered = false;
    }
  }
  std::printf("Origin absorbed outage traffic: %s; recovered outside window: %s\n",
              absorbed ? "OK" : "FAIL", recovered ? "OK" : "FAIL");

  const bool obs_ok = obs.WriteIfRequested().ok();
  return all_match && absorbed && recovered && obs_ok ? 0 : 1;
}
