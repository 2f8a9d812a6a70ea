// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fleet scaling sweep: replays the Fig. 7 experiment (six servers x three
// algorithms = 18 independent replay jobs) across 1..N worker threads and
// reports wall time, speedup and the work-stealing pool's task accounting
// per thread count.
//
// The sweep double-checks the determinism contract (docs/PARALLELISM.md):
// every thread count must produce the same FleetDigest as the sequential
// run -- the digest covers every per-server total, steady-state window and
// time-series point, so a single reordered or raced byte flips it.
//
// Flags: --max-threads N (sweep upper bound, default min(hardware, 8)),
// --repeat K (replays per thread count, fastest wall time reported),
// --obs-json <path> (instruments attached to the final sweep run).

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/check.h"
#include "src/util/str_util.h"

namespace {

size_t ArgSize(int argc, char** argv, const char* name, size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == name) {
      uint64_t parsed = 0;
      if (vcdn::util::ParseUint64(argv[i + 1], &parsed) && parsed > 0) {
        return static_cast<size_t>(parsed);
      }
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;
  bench::BenchFlags flags = bench::FlagsFromArgs(argc, argv, {"--max-threads"});
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::BenchObs obs(argc, argv);
  obs.SetWorkload("fleet scaling", scale.seed);
  const size_t hardware = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t max_threads = ArgSize(argc, argv, "--max-threads", std::min<size_t>(hardware, 8));
  bench::PrintHeader(
      "Fleet scaling: Fig. 7 fleet (6 servers x 3 algorithms) on 1..N threads",
      "parallel replay is bit-identical to sequential for any thread count "
      "(FleetDigest check) and scales with cores until 18 jobs run out",
      scale);
  std::printf("Hardware concurrency %zu, sweeping 1..%zu threads, %zu repeat%s per point\n\n",
              hardware, max_threads, flags.repeat, flags.repeat == 1 ? "" : "s");

  // The fleet under test: one trace per paper server (generated in parallel),
  // all three algorithms per server at the Fig. 7 operating point.
  bench::BenchFlags gen_flags = flags;
  gen_flags.threads = 0;  // trace generation always uses all cores
  std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(scale.workload_scale);
  std::vector<trace::Trace> traces = bench::MakeServerTraces(profiles, scale, gen_flags);
  core::CacheConfig config = bench::PaperConfig(1.0, 2.0, scale);

  std::vector<sim::FleetServer> servers;
  const core::CacheKind kinds[] = {core::CacheKind::kXlru, core::CacheKind::kCafe,
                                   core::CacheKind::kPsychic};
  for (size_t s = 0; s < profiles.size(); ++s) {
    for (core::CacheKind kind : kinds) {
      servers.push_back(sim::FleetServer{profiles[s].name, kind, config, &traces[s], {}});
    }
  }

  uint64_t requests = 0;
  for (const trace::Trace& trace : traces) {
    requests += trace.requests.size();
  }
  std::printf("%zu jobs over %llu requests\n\n", servers.size(),
              static_cast<unsigned long long>(requests) * 3);

  util::TextTable table(
      {"threads", "wall s", "speedup", "jobs/s", "tasks stolen", "digest", "match"});
  double sequential_wall = 0.0;
  uint64_t reference_digest = 0;
  bool all_match = true;
  const bool obs_on = obs.enabled();

  for (size_t threads = 1; threads <= max_threads; ++threads) {
    const bool last_point = threads == max_threads;
    double best_wall = 0.0;
    uint64_t digest = 0;
    uint64_t stolen = 0;
    for (size_t k = 0; k < flags.repeat; ++k) {
      const bool record_obs = obs_on && last_point && k + 1 == flags.repeat;
      sim::FleetOptions options;
      if (record_obs) {
        options.replay.metrics = obs.metrics();
        options.replay.trace_sink = obs.trace_sink();
      }
      sim::FleetResult result;
      if (threads == 1) {
        options.threads = 1;  // the inline sequential reference, no pool
        result = sim::RunFleet(servers, options);
      } else {
        exec::ThreadPoolOptions pool_options;
        pool_options.num_threads = threads;
        if (record_obs) {
          pool_options.metrics = obs.metrics();
          pool_options.trace_sink = obs.trace_sink();
        }
        exec::ThreadPool pool(pool_options);
        options.pool = &pool;
        result = sim::RunFleet(servers, options);
        pool.Shutdown();
        stolen = pool.stats().stolen;
      }
      uint64_t d = sim::FleetDigest(result);
      if (k == 0) {
        digest = d;
      } else {
        VCDN_CHECK(d == digest);  // repeats must agree
      }
      best_wall = k == 0 ? result.wall_seconds : std::min(best_wall, result.wall_seconds);
    }
    if (threads == 1) {
      sequential_wall = best_wall;
      reference_digest = digest;
    }
    const bool match = digest == reference_digest;
    all_match = all_match && match;
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    table.AddRow({std::to_string(threads), util::FormatDouble(best_wall, 2),
                  util::FormatDouble(best_wall > 0 ? sequential_wall / best_wall : 0.0, 2),
                  util::FormatDouble(
                      best_wall > 0 ? static_cast<double>(servers.size()) / best_wall : 0.0, 1),
                  std::to_string(stolen), digest_hex, match ? "OK" : "MISMATCH"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Determinism across thread counts: %s\n", all_match ? "OK" : "MISMATCH");
  const bool obs_ok = obs.WriteIfRequested().ok();
  return all_match && obs_ok ? 0 : 1;
}
