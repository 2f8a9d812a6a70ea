// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/parallel_fleet.h"

#include <bit>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "src/exec/fan_out.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_event.h"
#include "src/util/fnv1a.h"

namespace vcdn::sim {

namespace {

// One shard's private sinks, for whichever of them the caller's
// ReplayOptions attaches: shards never share a sink while they run. After
// the join each shard folds its sinks into the caller's, in shard order,
// which is what makes the merged telemetry identical at every thread count
// (docs/PARALLELISM.md).
struct ShardSinks {
  std::optional<obs::MetricsRegistry> metrics;
  // Over `metrics`, so a ShardSinks never moves once its sinks exist.
  std::optional<obs::TimeSeriesRecorder> series;
  std::optional<obs::TraceEventSink> trace;
  std::optional<obs::FlightRecorder> flight;
  // Deferred fault-boundary dumps; shards never touch a shared file.
  std::vector<obs::FlightCapture> captures;

  // `options` pointed at sinks of this shard's own.
  ReplayOptions Attach(ReplayOptions options) {
    if (options.metrics != nullptr) {
      options.metrics = &metrics.emplace();
    }
    if (options.series != nullptr) {
      options.series = &series.emplace(options.metrics);
    }
    if (options.trace_sink != nullptr) {
      options.trace_sink = &trace.emplace();
    }
    if (options.flight != nullptr) {
      options.flight = &flight.emplace(options.flight->capacity());
    }
    options.flight_captures = flight.has_value() ? &captures : nullptr;
    return options;
  }

  // Registries and series merge, events land on trace lane
  // obs::kFleetTidBase + shard, ring records are re-recorded (the merged
  // ring holds the tail of the concatenated shard streams) and captures are
  // appended.
  void MergeInto(const ReplayOptions& base, size_t shard) {
    if (metrics.has_value()) {
      base.metrics->MergeFrom(*metrics);
    }
    if (series.has_value()) {
      base.series->MergeFrom(*series);
    }
    if (trace.has_value()) {
      base.trace_sink->Append(*trace, obs::kFleetTidBase + static_cast<int>(shard));
    }
    if (flight.has_value()) {
      for (const obs::DecisionRecord& record : flight->Snapshot()) {
        base.flight->Record(record);
      }
      if (base.flight_captures != nullptr) {
        for (obs::FlightCapture& capture : captures) {
          base.flight_captures->push_back(std::move(capture));
        }
      }
    }
  }
};

void RunShard(const FleetServer& server, const ReplayOptions& options, ReplayResult& out) {
  auto cache = core::MakeCache(server.kind, server.config);
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
  // One callback for every shard would run concurrently on pool workers;
  // on_shard_outcome is the per-shard form.
  VCDN_CHECK(options.replay.on_outcome == nullptr);
  // A series records over the registry.
  VCDN_CHECK(options.replay.series == nullptr || options.replay.metrics != nullptr);

  FleetResult result;
  result.servers.resize(servers.size());
  // Every shard's sinks are made here, together, so their trace lanes share
  // one time origin.
  std::vector<ShardSinks> sinks(servers.size());
  std::vector<ReplayOptions> shard_options;
  for (size_t i = 0; i < servers.size(); ++i) {
    ReplayOptions& shard = shard_options.emplace_back(sinks[i].Attach(options.replay));
    shard.flight_label = servers[i].name.empty() ? "server" + std::to_string(i) : servers[i].name;
    // Shard i is fault target i: a shared FaultSchedule applies each
    // server's own outage/degrade windows, and stays deterministic because
    // the schedule is read-only and each driver is replay-local.
    shard.fault_target = i;
    if (options.on_shard_outcome) {
      shard.on_outcome = [&hook = options.on_shard_outcome, i](
                             const trace::Request& request, const core::RequestOutcome& outcome) {
        hook(i, request, outcome);
      };
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
      RunShard(servers[i], shard_options[i], result.servers[i]);
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
        *pool, sizes, [&](size_t i) { RunShard(servers[i], shard_options[i], result.servers[i]); },
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
  for (size_t i = 0; i < servers.size(); ++i) {
    result.totals.Add(result.servers[i].totals);
    result.steady.Add(result.servers[i].steady);
    sinks[i].MergeInto(options.replay, i);
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
