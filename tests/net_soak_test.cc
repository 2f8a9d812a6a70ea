// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Loopback soak test: N connections x M requests against a live EdgeServer,
// asserting (a) every request gets exactly one response -- nothing lost,
// nothing duplicated -- across repeated replays over fresh connections, and
// (b) the serve path performs zero steady-state allocations. This binary
// links vcdn_alloc_hook, so the daemon's util::AllocScope around each shard
// drain counts real operator-new calls into net.server.serve_allocs_total;
// after a warmup pass has grown every buffer to its working set, a second
// full pass must add zero.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/net/edge_server.h"
#include "src/net/load_gen.h"
#include "src/obs/metrics.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/alloc_hook.h"

namespace vcdn::net {
namespace {

trace::Trace MakeTrace(uint64_t seed, double duration_seconds) {
  trace::WorkloadConfig config;
  config.profile = trace::PaperServerProfiles(0.02)[0];
  // Pin the arrival rate so the trace size is set by the duration argument
  // (the scaled-down paper profile alone generates only a handful).
  config.profile.base_request_rate = 4.0;
  config.seed = seed;
  config.duration_seconds = duration_seconds;
  return trace::WorkloadGenerator(config).Generate().trace;
}

uint64_t TotalFolded(const EdgeServer& server) {
  uint64_t folded = 0;
  for (size_t s = 0; s < server.num_shards(); ++s) {
    folded += server.ShardDigest(s).count;
  }
  return folded;
}

void WaitForFolded(const EdgeServer& server, uint64_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (TotalFolded(server) < expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(NetSoakTest, EveryResponseAccountedAndServePathAllocFree) {
  ASSERT_TRUE(util::AllocHookActive()) << "soak test must link vcdn_alloc_hook";

  const trace::Trace trace = MakeTrace(17, 2.0 * 3600.0);
  const uint64_t requests_per_pass = trace.requests.size();
  ASSERT_GT(requests_per_pass, 2000u);

  exec::ThreadPool pool(4);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  // xLRU runs on the flat containers whose steady state is proven
  // allocation-free in container_flat_differential_test; the soak extends
  // that proof across sockets, parser, shard drain and encoder.
  options.cache_kind = core::CacheKind::kXlru;
  options.cache_config.disk_capacity_chunks = 4096;
  options.num_shards = 2;
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  obs::Counter serve_allocs = registry.GetCounter("net.server.serve_allocs_total");

  LoadGenOptions load;
  load.port = server.port();
  load.connections = 4;
  load.pipeline_depth = 32;

  // Pass 1 (warmup): grows caches, wire buffers and shard scratch to their
  // working sets.
  util::Result<LoadGenResult> warmup = RunClosedLoop(trace, load);
  ASSERT_TRUE(warmup.ok()) << warmup.status().message();
  EXPECT_EQ(warmup.value().requests_sent, requests_per_pass);
  EXPECT_EQ(warmup.value().responses_received, requests_per_pass);
  WaitForFolded(server, requests_per_pass);
  ASSERT_EQ(TotalFolded(server), requests_per_pass);

  // Pass 2 (measured): the same trace over fresh connections. The serve
  // path -- inbox swap, batch build, cache admission, digest fold, response
  // encode, socket flush -- must not allocate at all.
  const uint64_t allocs_before = serve_allocs.value();
  util::Result<LoadGenResult> measured = RunClosedLoop(trace, load);
  ASSERT_TRUE(measured.ok()) << measured.status().message();
  EXPECT_EQ(measured.value().requests_sent, requests_per_pass);
  EXPECT_EQ(measured.value().responses_received, requests_per_pass);
  WaitForFolded(server, 2 * requests_per_pass);
  ASSERT_EQ(TotalFolded(server), 2 * requests_per_pass);
  const uint64_t allocs_during = serve_allocs.value() - allocs_before;
  EXPECT_EQ(allocs_during, 0u)
      << "serve path allocated " << allocs_during << " times during the measured pass";

  // Global request accounting across both passes.
  EXPECT_EQ(registry.GetCounter("net.server.requests_total").value(), 2 * requests_per_pass);
  EXPECT_EQ(registry.GetCounter("net.server.responses_total").value(), 2 * requests_per_pass);
  EXPECT_EQ(registry.GetCounter("net.server.protocol_errors_total").value(), 0u);

  server.Stop();
  pool.Shutdown();
}

// Repeated short replays over many short-lived connections: connection
// churn must not leak responses or confuse accounting.
TEST(NetSoakTest, ConnectionChurnKeepsAccountingExact) {
  const trace::Trace trace = MakeTrace(23, 900.0);
  const uint64_t per_pass = trace.requests.size();
  exec::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  options.cache_config.disk_capacity_chunks = 2048;
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kPasses = 8;
  for (int pass = 0; pass < kPasses; ++pass) {
    LoadGenOptions load;
    load.port = server.port();
    load.connections = 1 + static_cast<size_t>(pass % 3);
    load.pipeline_depth = 1 + static_cast<size_t>(pass * 7 % 33);
    util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
    ASSERT_TRUE(result.ok()) << "pass " << pass << ": " << result.status().message();
    ASSERT_EQ(result.value().responses_received, per_pass) << "pass " << pass;
  }
  WaitForFolded(server, static_cast<uint64_t>(kPasses) * per_pass);
  EXPECT_EQ(TotalFolded(server), static_cast<uint64_t>(kPasses) * per_pass);
  EXPECT_EQ(registry.GetCounter("net.server.requests_total").value(),
            static_cast<uint64_t>(kPasses) * per_pass);
  server.Stop();
  pool.Shutdown();
}

}  // namespace
}  // namespace vcdn::net
