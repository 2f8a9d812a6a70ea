// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Streaming-RSS check: peak RSS of paper-scale streaming replay is bounded
// in trace length. The Fig. 7 six-server fleet (xLRU and Cafe per server,
// 1 paper-TB disks) replays at scale 1.0 -- the paper's full request rate
// and catalog -- for 7.5, 15 and 30 days through trace::GeneratedStream,
// which generates each window as it is replayed, on a dedicated generator
// pool (never the fleet pool: src/trace/generated_stream.h documents the
// deadlock). Nothing is materialized. Each run happens in its own forked
// child, whose peak RSS (VmHWM from /proc/self/status) is that run's alone:
// in one process a later run also reads the freed memory earlier runs left
// in the allocator's arenas, which malloc_trim does not return.
//
// Exits 1 when the 30-day peak exceeds 1.5x the 7.5-day peak. The scale and
// the trace lengths are fixed: the axis is trace length, not workload scale,
// because a larger scale also grows the catalog, and with it the generator's
// catalog state and each cache's tracked state (docs/PERFORMANCE.md).
//
// The streaming producers' digest equivalence is pinned in ctest
// (FleetGoldenDigestTest in tests/sim_parallel_fleet_test.cc); streaming
// throughput is perfbench's fleet-churn workload (BENCHMARK.json).
//
// Flags: --threads N (the fleet's workers, bench_common.h); a usage error
// exits 2. VCDN_BENCH_DISK_SCALE and VCDN_BENCH_SEED apply; VCDN_BENCH_SCALE
// and VCDN_BENCH_DAYS would be overridden, so setting either is a usage
// error.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/thread_pool.h"
#include "src/trace/generated_stream.h"
#include "src/util/flags.h"
#include "src/util/status.h"

namespace {

constexpr double kScale = 1.0;
constexpr double kDays[] = {7.5, 15.0, 30.0};  // shortest first
constexpr double kMaxPeakGrowth = 1.5;

// Replays the streaming fleet for `scale.days`, prints one line, and returns
// the process's peak RSS in MiB.
double ReplayFleet(const vcdn::bench::BenchScale& scale, const vcdn::bench::BenchFlags& flags) {
  using namespace vcdn;
  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(kScale);
  const core::CacheConfig cache_config = bench::PaperConfig(1.0, 2.0, scale);
  exec::ThreadPool generator_pool(exec::ThreadPoolOptions{});
  std::vector<sim::FleetServer> servers;
  for (size_t s = 0; s < profiles.size(); ++s) {
    const trace::WorkloadConfig workload = bench::ServerWorkloadConfig(profiles[s], s, scale);
    for (core::CacheKind kind : {core::CacheKind::kXlru, core::CacheKind::kCafe}) {
      sim::FleetServer server;
      server.name = profiles[s].name + "/" + std::string(core::CacheKindName(kind));
      server.kind = kind;
      server.config = cache_config;
      server.stream = [workload, &generator_pool]() -> std::unique_ptr<trace::RequestStream> {
        trace::GeneratedStreamOptions options;
        options.generator_pool = &generator_pool;
        return std::make_unique<trace::GeneratedStream>(workload, options);
      };
      servers.push_back(std::move(server));
    }
  }
  sim::FleetOptions options;
  options.threads = flags.threads;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::FleetResult result = sim::RunFleet(servers, options);
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double peak = bench::PeakRssMb();
  std::printf("%4.1f days  %9llu requests  wall %6.2f s  peak RSS %6.1f MiB\n", scale.days,
              static_cast<unsigned long long>(result.totals.requests), wall, peak);
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv, bench::kThreads);
  for (const char* name : {"VCDN_BENCH_SCALE", "VCDN_BENCH_DAYS"}) {
    if (std::getenv(name) != nullptr) {
      util::ExitOnUsageError(util::InvalidArgumentError(
          std::string("'") + name +
          "' is set, but this bench runs at a fixed scale and trace lengths (unset it)"));
    }
  }
  bench::BenchScale scale = bench::ScaleFromEnv();
  scale.workload_scale = kScale;
  scale.days = kDays[std::size(kDays) - 1];
  bench::PrintHeader(
      "Streaming-RSS check: generate-as-you-replay at paper scale, 7.5 to 30 days",
      "engineering check (no paper figure); peak RSS of the full-rate fig7 fleet "
      "stays bounded as the trace grows 4x",
      scale);

  std::vector<double> peaks;
  for (double days : kDays) {
    bench::BenchScale run_scale = scale;
    run_scale.days = days;
    int fds[2];
    std::fflush(stdout);  // or the child would print the parent's buffer again
    if (pipe(fds) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t child = fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      const double peak = ReplayFleet(run_scale, flags);
      std::fflush(stdout);
      const bool sent = write(fds[1], &peak, sizeof(peak)) == sizeof(peak);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double peak = 0.0;
    const bool received = read(fds[0], &peak, sizeof(peak)) == sizeof(peak);
    close(fds[0]);
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !received) {
      std::fprintf(stderr, "error: the %.1f-day run failed\n", days);
      return 1;
    }
    peaks.push_back(peak);
  }

  const double growth = peaks.back() / peaks.front();
  std::printf("\n%.0f-day peak RSS is %.2fx the %.1f-day peak (bound %.1fx)\n",
              kDays[std::size(kDays) - 1], growth, kDays[0], kMaxPeakGrowth);
  if (growth > kMaxPeakGrowth) {
    std::fprintf(stderr, "error: peak RSS grew with trace length\n");
    return 1;
  }
  return 0;
}
