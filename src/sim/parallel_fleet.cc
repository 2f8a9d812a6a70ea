// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/parallel_fleet.h"

#include <bit>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "src/util/fnv1a.h"

namespace vcdn::sim {

namespace {

// Everything a shard produces besides its ReplayResult: the local obs
// recordings, merged into the shared sinks in server order after the join.
struct ShardObs {
  std::optional<obs::MetricsRegistry> metrics;
  std::optional<obs::TraceEventSink> sink;
  std::optional<obs::TimeSeriesRecorder> series;
  std::optional<obs::FlightRecorder> flight;
  // Deferred fault-boundary dumps, appended to the caller's vector (in
  // server order) after the join -- shards never touch a shared file.
  std::vector<obs::FlightCapture> captures;
};

ReplayOptions ShardReplayOptions(const ReplayOptions& base, const FleetServer& server,
                                 ShardObs& obs, size_t shard_index) {
  ReplayOptions options = base;
  options.observer = nullptr;
  options.metrics = obs.metrics.has_value() ? &*obs.metrics : nullptr;
  options.trace_sink = obs.sink.has_value() ? &*obs.sink : nullptr;
  options.series = obs.series.has_value() ? &*obs.series : nullptr;
  options.flight = obs.flight.has_value() ? &*obs.flight : nullptr;
  options.flight_captures = obs.flight.has_value() ? &obs.captures : nullptr;
  options.flight_label =
      server.name.empty() ? "server" + std::to_string(shard_index) : server.name;
  // Shard i is fault target i: a shared FaultSchedule applies each server's
  // own outage/degrade windows, and stays deterministic because the schedule
  // is read-only and each driver is replay-local.
  options.fault_target = shard_index;
  return options;
}

void RunShard(const FleetServer& server, const ReplayOptions& base, ShardObs& obs,
              size_t shard_index, ReplayResult& out) {
  auto cache = core::MakeCache(server.kind, server.config);
  const ReplayOptions options = ShardReplayOptions(base, server, obs, shard_index);
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
  VCDN_CHECK(options.replay.observer == nullptr);
  VCDN_CHECK(options.replay.on_outcome == nullptr);

  if (options.replay.series != nullptr) {
    VCDN_CHECK(options.replay.metrics != nullptr);
  }
  const bool obs_enabled = options.replay.metrics != nullptr ||
                           options.replay.trace_sink != nullptr ||
                           options.replay.flight != nullptr;

  FleetResult result;
  result.servers.resize(servers.size());
  std::vector<ShardObs> shard_obs(servers.size());
  if (obs_enabled) {
    for (ShardObs& obs : shard_obs) {
      if (options.replay.metrics != nullptr) {
        obs.metrics.emplace();
        if (options.replay.series != nullptr) {
          obs.series.emplace(&*obs.metrics);
        }
      }
      if (options.replay.trace_sink != nullptr) {
        obs.sink.emplace();
      }
      if (options.replay.flight != nullptr) {
        obs.flight.emplace(options.replay.flight->capacity());
      }
    }
  }

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
      RunShard(servers[i], options.replay, shard_obs[i], i, result.servers[i]);
    }
  } else {
    // Span labels must outlive the tasks; keep them alive past the join.
    std::vector<std::string> labels;
    labels.reserve(servers.size());
    for (const FleetServer& server : servers) {
      labels.push_back("fleet." + (server.name.empty() ? "server" : server.name));
    }
    exec::Latch done(servers.size());
    for (size_t i = 0; i < servers.size(); ++i) {
      pool->Submit(
          [&servers, &options, &shard_obs, &result, &done, i] {
            RunShard(servers[i], options.replay, shard_obs[i], i, result.servers[i]);
            done.CountDown();
          },
          labels[i].c_str());
    }
    done.Wait();
  }
  // Flush worker spans before appending shard lanes so the event order is
  // (workers, then shards) -- deterministic either way, but only for a pool
  // this run owns; an external pool flushes at its own shutdown.
  if (owned_pool.has_value()) {
    owned_pool->Shutdown();
  }

  result.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Deterministic merge, in server order.
  for (size_t i = 0; i < servers.size(); ++i) {
    result.totals.Add(result.servers[i].totals);
    result.steady.Add(result.servers[i].steady);
    if (shard_obs[i].metrics.has_value()) {
      options.replay.metrics->MergeFrom(*shard_obs[i].metrics);
    }
    if (shard_obs[i].series.has_value()) {
      options.replay.series->MergeFrom(*shard_obs[i].series);
    }
    if (shard_obs[i].sink.has_value()) {
      options.replay.trace_sink->Append(*shard_obs[i].sink,
                                        obs::kFleetTidBase + static_cast<int>(i));
    }
    if (shard_obs[i].flight.has_value()) {
      // Re-record shard rings into the caller's ring in server order: the
      // merged ring holds the tail of the concatenated per-shard streams,
      // identically at every thread count (the shape RunFleet(threads=1)
      // produces too).
      for (const obs::DecisionRecord& record : shard_obs[i].flight->Snapshot()) {
        options.replay.flight->Record(record);
      }
      for (obs::FlightCapture& capture : shard_obs[i].captures) {
        if (options.replay.flight_captures != nullptr) {
          options.replay.flight_captures->push_back(std::move(capture));
        }
      }
    }
  }
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
