// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Net bridge against an external daemon: replays a seeded trace over one
// connection to an edge-server process started elsewhere
// (tools/edge_server.cc) and checks that the wire digest the client folds
// equals the offline sim::ReplayOutcomeDigest of the same trace, i.e. that
// the daemon served exactly the decisions the simulator would have
// (docs/NETWORKING.md).
//
//   bench_net_loopback --connect HOST:PORT
//
// --connect is required. The daemon must match the bridge config -- cafe,
// --disk-chunks 4096, one shard, client time -- and be freshly started, or
// the digests (correctly) differ. CI's net-smoke lane drives a real process
// over an ephemeral port this way. The same bridge against an in-process
// daemon is pinned in ctest (tests/net_edge_server_test.cc), and perfbench's
// edge-openloop workload measures the daemon's throughput and latency.
//
// Exits 0 on a match, 1 on a mismatch or a failed replay, 2 on bad flags.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/net/load_gen.h"
#include "src/sim/decision_digest.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/str_util.h"

int main(int argc, char** argv) {
  using namespace vcdn;
  const bench::BenchFlags flags = bench::FlagsFromArgs(argc, argv, {"--connect"});
  const bench::BenchScale scale = bench::ResolveScale(flags);
  std::string connect;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--connect") {
      connect = argv[i + 1];
    }
  }
  net::LoadGenOptions load;
  load.connections = 1;
  load.pipeline_depth = 64;
  const size_t colon = connect.rfind(':');
  uint64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !util::ParseUint64(connect.c_str() + colon + 1, &port) || port == 0 || port > 65535) {
    std::fprintf(stderr, "error: --connect HOST:PORT is required (got '%s')\n", connect.c_str());
    return 2;
  }
  load.host = connect.substr(0, colon);
  load.port = static_cast<uint16_t>(port);

  // Two hours of the first paper profile at a pinned 4 req/s (the scaled-down
  // profile alone generates only a handful per hour).
  trace::WorkloadConfig workload;
  workload.profile = trace::PaperServerProfiles(0.02)[0];
  workload.profile.base_request_rate = 4.0;
  workload.seed = scale.seed + 17;
  workload.duration_seconds = 2.0 * 3600.0;
  const trace::Trace trace = trace::WorkloadGenerator(workload).Generate().trace;
  core::CacheConfig config;
  config.disk_capacity_chunks = 4096;
  const uint64_t offline = sim::ReplayOutcomeDigest(core::CacheKind::kCafe, config, trace);

  util::Result<net::LoadGenResult> result = net::RunClosedLoop(trace, load);
  if (!result.ok()) {
    std::fprintf(stderr, "error: bridge replay failed: %s\n", result.status().message().c_str());
    return 1;
  }
  const bool match = result.value().digest == offline &&
                     result.value().responses_received == trace.requests.size();
  std::printf("Bridge: %zu requests to %s, offline digest %016llx, wire %016llx -- %s\n",
              trace.requests.size(), connect.c_str(), static_cast<unsigned long long>(offline),
              static_cast<unsigned long long>(result.value().digest),
              match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}
