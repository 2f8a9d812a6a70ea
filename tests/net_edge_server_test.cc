// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// End-to-end tests of the EdgeServer daemon over loopback sockets: the
// determinism bridge (daemon-served outcome digest == offline sim::Replay
// digest, at more than one pool thread count, and pinned to a recorded
// constant on the bridge trace), multi-connection accounting,
// protocol-error handling, idle timeouts, graceful shutdown, and the flight
// ring against the offline replay's.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/net/edge_server.h"
#include "src/net/load_gen.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/net/wire_buffer.h"
#include "src/obs/metrics.h"
#include "src/sim/decision_digest.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"

namespace vcdn::net {
namespace {

trace::Trace MakeTrace(uint64_t seed, double duration_seconds = 2.0 * 3600.0) {
  trace::WorkloadConfig config;
  config.profile = trace::PaperServerProfiles(0.02)[0];
  // Pin the arrival rate so the trace size is set by the duration argument
  // (the scaled-down paper profile alone generates only a handful).
  config.profile.base_request_rate = 4.0;
  config.seed = seed;
  config.duration_seconds = duration_seconds;
  return trace::WorkloadGenerator(config).Generate().trace;
}

core::CacheConfig SmallCacheConfig() {
  core::CacheConfig config;
  config.disk_capacity_chunks = 4096;
  return config;
}

// Polls until the shard has folded `expected` outcomes (responses may still
// be in flight to the client after the fold, so the digest settles first).
EdgeServer::DigestSnapshot WaitForDigest(const EdgeServer& server, size_t shard,
                                         uint64_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    EdgeServer::DigestSnapshot snapshot = server.ShardDigest(shard);
    if (snapshot.count >= expected || std::chrono::steady_clock::now() >= deadline) {
      return snapshot;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Reads until the server drops the connection (true) or 10 s pass (false).
// Fails the test if the server answers with data.
bool WaitForDrop(Socket& sock) {
  uint8_t buf[64];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = sock.ReadSome(buf, sizeof(buf));
    if (n == -1 || n == -2) {
      return true;
    }
    EXPECT_LE(n, 0) << "server answered a refused frame with data";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// The tentpole acceptance criterion: a seeded workload replayed over a real
// loopback socket against a one-shard daemon produces a bit-identical
// decision-stream digest to the offline replayer -- at multiple pool thread
// counts, since a shard runs one drain at a time regardless of workers.
TEST(NetEdgeServerTest, DigestBridgeMatchesOfflineReplay) {
  const trace::Trace trace = MakeTrace(99);
  ASSERT_GT(trace.requests.size(), 1000u);
  const uint64_t offline =
      sim::ReplayOutcomeDigest(core::CacheKind::kCafe, SmallCacheConfig(), trace);

  for (size_t threads : {1u, 4u}) {
    exec::ThreadPool pool(threads);
    EdgeServerOptions options;
    options.cache_kind = core::CacheKind::kCafe;
    options.cache_config = SmallCacheConfig();
    options.num_shards = 1;
    EdgeServer server(pool, options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_GT(server.port(), 0);

    LoadGenOptions load;
    load.port = server.port();
    load.connections = 1;
    load.pipeline_depth = 64;
    util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().responses_received, trace.requests.size());

    // The client folds the wire responses; the shard folds the outcomes.
    // Both must equal the offline replay of the same trace.
    EXPECT_EQ(result.value().digest, offline) << "threads=" << threads;
    EdgeServer::DigestSnapshot shard = WaitForDigest(server, 0, trace.requests.size());
    EXPECT_EQ(shard.count, trace.requests.size()) << "threads=" << threads;
    EXPECT_EQ(shard.value, offline) << "threads=" << threads;

    server.Stop();
    pool.Shutdown();
  }
}

// The bridge pin: the trace bench_net_loopback replays against an external
// daemon (the first paper profile at scale 0.02, seed 18, 4 req/s for 2 h),
// served by a one-shard in-process daemon over one connection. The offline
// replay and the wire digest must both equal the recorded constant, so a
// change to Cafe's decisions or to the wire fold fails here, not only a
// divergence between the two sides.
TEST(NetEdgeServerTest, BridgeTraceMatchesPinnedDigest) {
  constexpr uint64_t kDigest = 0x83b283f9d78b9270ULL;
  const trace::Trace trace = MakeTrace(18);
  ASSERT_EQ(trace.requests.size(), 25299u);
  EXPECT_EQ(sim::ReplayOutcomeDigest(core::CacheKind::kCafe, SmallCacheConfig(), trace), kDigest);

  exec::ThreadPool pool(2);
  EdgeServerOptions options;
  options.cache_kind = core::CacheKind::kCafe;
  options.cache_config = SmallCacheConfig();
  options.num_shards = 1;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());
  LoadGenOptions load;
  load.port = server.port();
  load.connections = 1;
  load.pipeline_depth = 64;
  util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().responses_received, trace.requests.size());
  EXPECT_EQ(result.value().digest, kDigest);
  server.Stop();
  pool.Shutdown();
}

TEST(NetEdgeServerTest, MultiConnectionMultiShardAccountsEveryRequest) {
  const trace::Trace trace = MakeTrace(7, 3600.0);
  exec::ThreadPool pool(4);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.num_shards = 4;
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions load;
  load.port = server.port();
  load.connections = 4;
  load.pipeline_depth = 32;
  load.metrics = &registry;
  util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().requests_sent, trace.requests.size());
  EXPECT_EQ(result.value().responses_received, trace.requests.size());
  EXPECT_GT(result.value().latency_p50, 0.0);
  EXPECT_LE(result.value().latency_p50, result.value().latency_p999);

  // Every request was folded into exactly one shard.
  uint64_t folded = 0;
  for (size_t s = 0; s < server.num_shards(); ++s) {
    folded += WaitForDigest(server, s, 0).count;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (folded < trace.requests.size() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    folded = 0;
    for (size_t s = 0; s < server.num_shards(); ++s) {
      folded += server.ShardDigest(s).count;
    }
  }
  EXPECT_EQ(folded, trace.requests.size());
  server.Stop();
  EXPECT_EQ(registry.GetCounter("net.server.requests_total").value(), trace.requests.size());
  EXPECT_EQ(registry.GetCounter("net.server.responses_total").value(), trace.requests.size());
  pool.Shutdown();
}

TEST(NetEdgeServerTest, ServerClockModeStillAnswersEverything) {
  const trace::Trace trace = MakeTrace(13, 1800.0);
  exec::ThreadPool pool(2);
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.use_client_time = false;  // stamp arrivals from the server clock
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions load;
  load.port = server.port();
  load.connections = 2;
  load.pipeline_depth = 16;
  util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result.value().responses_received, trace.requests.size());
  server.Stop();
  pool.Shutdown();
}

TEST(NetEdgeServerTest, CorruptFrameClosesConnectionAndCountsProtocolError) {
  exec::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  util::Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Socket sock = std::move(connected).value();
  const uint8_t garbage[16] = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(sock.WriteFull(garbage, sizeof(garbage)).ok());

  // The server must drop us: the read eventually reports peer-close.
  EXPECT_TRUE(WaitForDrop(sock));
  EXPECT_EQ(registry.GetCounter("net.server.protocol_errors_total").value(), 1u);
  server.Stop();
  pool.Shutdown();
}

// xLRU and Cafe hold a video's chunks in a row indexed by chunk number, so a
// request naming a far chunk would make them size a row for it (chunk
// 2^31 - 1 of 2 MiB: an 8 GiB row; chunk 2^31: past the row limit). The
// decoder refuses any request past trace::kMaxVideoBytes: each such
// connection is dropped and counted, the cache never sees the request, and
// the daemon keeps serving a well-formed trace on a new connection.
TEST(NetEdgeServerTest, FarOffsetRequestIsRefusedAndTheDaemonKeepsServing) {
  const trace::Trace trace = MakeTrace(5, 1800.0);
  for (core::CacheKind kind : {core::CacheKind::kCafe, core::CacheKind::kXlru}) {
    exec::ThreadPool pool(2);
    obs::MetricsRegistry registry;
    EdgeServerOptions options;
    options.cache_kind = kind;
    options.cache_config = SmallCacheConfig();
    options.metrics = &registry;
    EdgeServer server(pool, options);
    ASSERT_TRUE(server.Start().ok());

    const uint64_t chunk = options.cache_config.chunk_bytes;
    const uint64_t far_begins[] = {((uint64_t{1} << 31) - 1) * chunk, (uint64_t{1} << 31) * chunk,
                                   trace::kMaxVideoBytes};
    for (uint64_t begin : far_begins) {
      util::Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
      ASSERT_TRUE(connected.ok());
      Socket sock = std::move(connected).value();
      // Twice: xLRU admits a video's chunks on its second request.
      WireBuffer frames;
      for (uint64_t id = 1; id <= 2; ++id) {
        AppendRequest(frames, RequestFrame{id, 77, begin, begin + chunk - 1, 1.0});
      }
      ASSERT_TRUE(sock.WriteFull(frames.ReadPtr(), frames.ReadableBytes()).ok());
      EXPECT_TRUE(WaitForDrop(sock)) << "begin=" << begin;
    }
    EXPECT_EQ(registry.GetCounter("net.server.protocol_errors_total").value(),
              std::size(far_begins));
    EXPECT_EQ(registry.GetCounter("net.server.requests_total").value(), 0u);

    LoadGenOptions load;
    load.port = server.port();
    load.connections = 1;
    load.pipeline_depth = 16;
    util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(result.value().responses_received, trace.requests.size());
    EXPECT_EQ(result.value().digest, sim::ReplayOutcomeDigest(kind, SmallCacheConfig(), trace));
    server.Stop();
    pool.Shutdown();
  }
}

TEST(NetEdgeServerTest, IdleConnectionIsClosedByTheSweep) {
  exec::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.idle_timeout = std::chrono::milliseconds(100);
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  util::Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Socket sock = std::move(connected).value();

  // Send nothing; within a few sweep periods the server hangs up.
  uint8_t buf[8];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool dropped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = sock.ReadSome(buf, sizeof(buf));
    if (n == -1 || n == -2) {
      dropped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dropped);
  EXPECT_GE(registry.GetCounter("net.server.idle_closed_total").value(), 1u);
  server.Stop();
  pool.Shutdown();
}

TEST(NetEdgeServerTest, StopWithLiveConnectionsDrainsGracefully) {
  const trace::Trace trace = MakeTrace(21, 900.0);
  exec::ThreadPool pool(2);
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  // Finish a full replay, keep the connection open, then Stop: every queued
  // response must already be out, and Stop must return promptly.
  LoadGenOptions load;
  load.port = server.port();
  load.connections = 1;
  load.pipeline_depth = 8;
  util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
  ASSERT_TRUE(result.ok()) << result.status().message();

  util::Result<Socket> idle = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok());
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - stop_start).count();
  EXPECT_LT(stop_seconds, 5.0);
  EXPECT_FALSE(server.running());
  // Stop is idempotent.
  server.Stop();
  pool.Shutdown();
}

// Stop() finishes every request the event loop has routed: a client
// pipelines a burst and reads nothing, and Stop() starts as soon as the
// last frame is parsed, while the shard drains are still working through
// their inboxes.
TEST(NetEdgeServerTest, StopFinishesEveryRoutedRequest) {
  const trace::Trace trace = MakeTrace(31);
  const uint64_t n = trace.requests.size();
  exec::ThreadPool pool(2);
  obs::MetricsRegistry registry;
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.num_shards = 2;
  options.metrics = &registry;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  util::Result<Socket> connected = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Socket sock = std::move(connected).value();
  WireBuffer frames;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const trace::Request& request = trace.requests[i];
    RequestFrame frame;
    frame.request_id = i;
    frame.video = request.video;
    frame.byte_begin = request.byte_begin;
    frame.byte_end = request.byte_end;
    frame.arrival_time = request.arrival_time;
    AppendRequest(frames, frame);
  }
  ASSERT_TRUE(sock.WriteFull(frames.ReadPtr(), frames.ReadableBytes()).ok());

  obs::Counter requests = registry.GetCounter("net.server.requests_total");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (requests.value() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(requests.value(), n);
  server.Stop();

  uint64_t folded = 0;
  for (size_t s = 0; s < server.num_shards(); ++s) {
    folded += server.ShardDigest(s).count;
  }
  EXPECT_EQ(folded, n);
  EXPECT_EQ(registry.GetCounter("net.server.responses_total").value(), n);
  pool.Shutdown();
}

TEST(NetEdgeServerTest, FlightRecorderCapturesTheTailOfTheStream) {
  const trace::Trace trace = MakeTrace(5, 900.0);
  exec::ThreadPool pool(2);
  EdgeServerOptions options;
  options.cache_config = SmallCacheConfig();
  options.flight_recorder_capacity = 256;
  EdgeServer server(pool, options);
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions load;
  load.port = server.port();
  util::Result<LoadGenResult> result = RunClosedLoop(trace, load);
  ASSERT_TRUE(result.ok()) << result.status().message();
  WaitForDigest(server, 0, trace.requests.size());
  server.Stop();  // quiesces the shard; safe to inspect the recorder

  const obs::FlightRecorder* flight = server.ShardFlightRecorder(0);
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->total_recorded(), trace.requests.size());
  EXPECT_EQ(flight->size(), std::min<size_t>(256, trace.requests.size()));

  // The daemon packs its records exactly as the offline replay does, so
  // the two rings are byte-identical.
  obs::FlightRecorder offline(256);
  sim::ReplayOptions replay;
  replay.flight = &offline;
  auto cache = core::MakeCache(options.cache_kind, options.cache_config);
  sim::Replay(*cache, trace, replay);
  const std::vector<obs::DecisionRecord> served = flight->Snapshot();
  const std::vector<obs::DecisionRecord> replayed = offline.Snapshot();
  ASSERT_EQ(served.size(), replayed.size());
  EXPECT_EQ(std::memcmp(served.data(), replayed.data(), served.size() * sizeof(obs::DecisionRecord)),
            0);
  pool.Shutdown();
}

}  // namespace
}  // namespace vcdn::net
