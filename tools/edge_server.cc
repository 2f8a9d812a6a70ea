// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// vcdn edge-server daemon: net::EdgeServer as a standalone process. Binds
// a TCP port (0 = ephemeral), serves the length-prefixed protocol of
// src/net/protocol.h until SIGINT/SIGTERM, then drains gracefully and
// prints a serving summary -- per-shard outcome digests plus the
// net.server.* counters -- so a driving script can assert clean shutdown
// and exact accounting (.github/workflows/ci.yml "net-smoke" does exactly
// that, replaying the bridge trace with bench_net_loopback --connect).
//
// The bound address is announced on the first stdout line:
//
//   vcdn_edge_server listening on 127.0.0.1 port 46523
//
// so callers using an ephemeral port can scrape it (awk '/listening
// on/{print $NF}').
//
// Flag parsing fails FAST in the bench_common style: unknown flags,
// missing values and unparsable numbers name the offender on stderr and
// exit(2) -- a daemon silently running a default config would invalidate
// whatever experiment is driving it.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/net/edge_server.h"
#include "src/obs/metrics.h"
#include "src/util/str_util.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

[[noreturn]] void UsageError(const char* format, const char* a, const char* b = "") {
  std::fprintf(stderr, "error: ");
  std::fprintf(stderr, format, a, b);
  std::fprintf(stderr,
               "\nusage: edge_server [--address A] [--port N] [--shards N] [--threads N]\n"
               "                   [--cache xlru|cafe|fill-lru|fill-lfu] [--disk-chunks N]\n"
               "                   [--alpha F] [--server-clock 0|1] [--idle-timeout-ms N]\n"
               "                   [--flight N]\n");
  std::exit(2);
}

uint64_t ParseCount(const char* value, const char* flag) {
  uint64_t parsed = 0;
  if (!vcdn::util::ParseUint64(value, &parsed)) {
    UsageError("invalid value '%s' for flag '%s'", value, flag);
  }
  return parsed;
}

vcdn::core::CacheKind ParseCacheKind(const std::string& name) {
  using vcdn::core::CacheKind;
  if (name == "xlru") return CacheKind::kXlru;
  if (name == "cafe") return CacheKind::kCafe;
  if (name == "fill-lru") return CacheKind::kFillLru;
  if (name == "fill-lfu") return CacheKind::kFillLfu;
  // Psychic/Belady are offline policies (they Prepare on the full future
  // trace); a live daemon has no future to consult.
  UsageError("unknown cache kind '%s' (want xlru|cafe|fill-lru|fill-lfu)", name.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;

  std::string address = "127.0.0.1";
  uint64_t port = 0;
  uint64_t shards = 1;
  uint64_t threads = 0;  // 0 = hardware concurrency
  std::string cache_name = "cafe";
  uint64_t disk_chunks = 4096;
  double alpha = 1.0;
  uint64_t server_clock = 0;
  uint64_t idle_timeout_ms = 30000;
  uint64_t flight = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      UsageError("unexpected positional argument '%s'", argv[i]);
    }
    if (i + 1 >= argc) {
      UsageError("flag '%s' is missing its value", argv[i]);
    }
    const char* value = argv[++i];
    if (arg == "--address") {
      address = value;
    } else if (arg == "--port") {
      port = ParseCount(value, "--port");
      if (port > 65535) {
        UsageError("invalid value '%s' for flag '%s'", value, "--port");
      }
    } else if (arg == "--shards") {
      shards = ParseCount(value, "--shards");
      if (shards == 0) shards = 1;
    } else if (arg == "--threads") {
      threads = ParseCount(value, "--threads");
    } else if (arg == "--cache") {
      cache_name = value;
    } else if (arg == "--disk-chunks") {
      disk_chunks = ParseCount(value, "--disk-chunks");
      if (disk_chunks == 0) {
        UsageError("invalid value '%s' for flag '%s'", value, "--disk-chunks");
      }
    } else if (arg == "--alpha") {
      char* end = nullptr;
      alpha = std::strtod(value, &end);
      if (end == value || *end != '\0' || alpha <= 0.0) {
        UsageError("invalid value '%s' for flag '%s'", value, "--alpha");
      }
    } else if (arg == "--server-clock") {
      server_clock = ParseCount(value, "--server-clock");
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = ParseCount(value, "--idle-timeout-ms");
    } else if (arg == "--flight") {
      flight = ParseCount(value, "--flight");
    } else {
      UsageError("unknown flag '%s'", arg.c_str(), "");
    }
  }

  const size_t pool_threads =
      threads > 0 ? static_cast<size_t>(threads)
                  : std::max<size_t>(1, std::thread::hardware_concurrency());

  obs::MetricsRegistry registry;
  exec::ThreadPool pool(pool_threads);
  net::EdgeServerOptions options;
  options.address = address;
  options.port = static_cast<uint16_t>(port);
  options.num_shards = static_cast<size_t>(shards);
  options.cache_kind = ParseCacheKind(cache_name);
  options.cache_config.disk_capacity_chunks = disk_chunks;
  options.cache_config.alpha_f2r = alpha;
  options.use_client_time = server_clock == 0;
  options.idle_timeout = std::chrono::milliseconds(idle_timeout_ms);
  options.metrics = &registry;
  options.flight_recorder_capacity = static_cast<size_t>(flight);

  net::EdgeServer server(pool, options);
  util::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: start failed: %s\n", std::string(status.message()).c_str());
    return 1;
  }

  std::printf("vcdn_edge_server listening on %s port %u\n", address.c_str(), server.port());
  std::printf("cache=%s disk_chunks=%llu alpha=%.2f shards=%llu threads=%zu clock=%s\n",
              std::string(core::CacheKindName(options.cache_kind)).c_str(),
              static_cast<unsigned long long>(disk_chunks), alpha,
              static_cast<unsigned long long>(shards), pool_threads,
              options.use_client_time ? "client" : "server");
  std::fflush(stdout);

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("shutting down (signal)\n");
  server.Stop();
  pool.Shutdown();

  // Serving summary: exact accounting plus the per-shard digests, in the
  // grep-friendly "key value" shape the CI smoke asserts on.
  const uint64_t requests = registry.GetCounter("net.server.requests_total").value();
  const uint64_t responses = registry.GetCounter("net.server.responses_total").value();
  std::printf("served requests %llu responses %llu protocol_errors %llu\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(responses),
              static_cast<unsigned long long>(
                  registry.GetCounter("net.server.protocol_errors_total").value()));
  for (size_t s = 0; s < server.num_shards(); ++s) {
    net::EdgeServer::DigestSnapshot digest = server.ShardDigest(s);
    std::printf("shard %zu digest %016llx count %llu\n", s,
                static_cast<unsigned long long>(digest.value),
                static_cast<unsigned long long>(digest.count));
  }
  std::printf("clean shutdown\n");
  return requests == responses ? 0 : 1;
}
