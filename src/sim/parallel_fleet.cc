// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/parallel_fleet.h"

#include <bit>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "src/exec/fan_out.h"
#include "src/sim/shard_telemetry.h"
#include "src/util/fnv1a.h"

namespace vcdn::sim {

namespace {

void RunShard(const FleetServer& server, ShardTelemetry& telemetry, size_t shard_index,
              ReplayResult& out) {
  auto cache = core::MakeCache(server.kind, server.config);
  ReplayOptions options = telemetry.ShardOptions(shard_index);
  options.flight_label =
      server.name.empty() ? "server" + std::to_string(shard_index) : server.name;
  // Shard i is fault target i: a shared FaultSchedule applies each server's
  // own outage/degrade windows, and stays deterministic because the schedule
  // is read-only and each driver is replay-local.
  options.fault_target = shard_index;
  if (server.trace != nullptr) {
    out = Replay(*cache, *server.trace, options);
  } else {
    // Built here, on the shard's worker, so producer state lives and dies
    // with the shard.
    std::unique_ptr<trace::RequestStream> stream = server.stream();
    out = ReplayStream(*cache, *stream, options);
  }
}

}  // namespace

FleetResult RunFleet(const std::vector<FleetServer>& servers, const FleetOptions& options) {
  VCDN_CHECK(!servers.empty());
  for (const FleetServer& server : servers) {
    VCDN_CHECK_MSG((server.trace != nullptr) != static_cast<bool>(server.stream),
                   "FleetServer needs exactly one of trace or stream");
  }
  // Per-shard callbacks would run concurrently on pool workers; the fleet
  // API deliberately has no per-request hook.
  VCDN_CHECK(options.replay.on_outcome == nullptr);

  FleetResult result;
  result.servers.resize(servers.size());
  ShardTelemetry telemetry(options.replay, servers.size());

  const auto start = std::chrono::steady_clock::now();
  exec::ThreadPool* pool = options.pool;
  std::optional<exec::ThreadPool> owned_pool;
  if (pool == nullptr && options.threads != 1) {
    exec::ThreadPoolOptions pool_options;
    pool_options.num_threads = options.threads;
    // The shared registry is thread-safe; the shared sink is not, so the
    // pool buffers worker spans until Shutdown.
    pool_options.metrics = options.replay.metrics;
    pool_options.trace_sink = options.replay.trace_sink;
    owned_pool.emplace(pool_options);
    pool = &*owned_pool;
  }
  result.threads = pool != nullptr ? pool->num_threads() : 1;

  if (pool == nullptr) {
    for (size_t i = 0; i < servers.size(); ++i) {
      RunShard(servers[i], telemetry, i, result.servers[i]);
    }
  } else {
    // Span labels must outlive the tasks; keep them alive past the join.
    std::vector<std::string> labels;
    labels.reserve(servers.size());
    for (const FleetServer& server : servers) {
      labels.push_back("fleet." + (server.name.empty() ? "server" : server.name));
    }
    // A stream's length is unknown until it has been replayed.
    std::vector<double> sizes;
    sizes.reserve(servers.size());
    for (const FleetServer& server : servers) {
      sizes.push_back(server.trace != nullptr ? static_cast<double>(server.trace->requests.size())
                                              : 0.0);
    }
    exec::RunLargestFirst(
        *pool, sizes, [&](size_t i) { RunShard(servers[i], telemetry, i, result.servers[i]); },
        [&labels](size_t i) { return labels[i].c_str(); });
  }
  // Flush worker spans before appending shard lanes so the event order is
  // (workers, then shards) -- deterministic either way, but only for a pool
  // this run owns; an external pool flushes at its own shutdown.
  if (owned_pool.has_value()) {
    owned_pool->Shutdown();
  }

  result.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Deterministic merge, in server order.
  for (const ReplayResult& server : result.servers) {
    result.totals.Add(server.totals);
    result.steady.Add(server.steady);
  }
  telemetry.MergeInto();
  return result;
}

namespace {

void FoldDouble(double value, util::Fnv1a& hash) { hash.FoldU64(std::bit_cast<uint64_t>(value)); }

void FoldTotals(const ReplayTotals& totals, util::Fnv1a& hash) {
  hash.FoldU64(totals.requests);
  hash.FoldU64(totals.served_requests);
  hash.FoldU64(totals.redirected_requests);
  hash.FoldU64(totals.requested_bytes);
  hash.FoldU64(totals.served_bytes);
  hash.FoldU64(totals.redirected_bytes);
  hash.FoldU64(totals.filled_bytes);
  hash.FoldU64(totals.evicted_chunks);
  hash.FoldU64(totals.requested_chunks);
  hash.FoldU64(totals.filled_chunks);
  hash.FoldU64(totals.redirected_chunks);
  hash.FoldU64(totals.proactive_filled_chunks);
  hash.FoldU64(totals.unavailable_requests);
  hash.FoldU64(totals.unavailable_bytes);
  hash.FoldU64(totals.unavailable_chunks);
}

}  // namespace

uint64_t FleetDigest(const FleetResult& result) {
  util::Fnv1a hash;
  FoldTotals(result.totals, hash);
  FoldTotals(result.steady, hash);
  for (const ReplayResult& server : result.servers) {
    FoldTotals(server.totals, hash);
    FoldTotals(server.steady, hash);
    FoldDouble(server.efficiency, hash);
    FoldDouble(server.ingress_fraction, hash);
    FoldDouble(server.redirect_fraction, hash);
    for (const SeriesPoint& point : server.series) {
      FoldDouble(point.bucket_start, hash);
      hash.FoldU64(point.requested_bytes);
      hash.FoldU64(point.served_bytes);
      hash.FoldU64(point.redirected_bytes);
      hash.FoldU64(point.filled_bytes);
      hash.FoldU64(point.unavailable_bytes);
    }
  }
  return hash.value();
}

}  // namespace vcdn::sim
