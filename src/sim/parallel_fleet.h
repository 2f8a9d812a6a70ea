// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Parallel fleet replay: shards a multi-server experiment -- one independent
// CacheAlgorithm + trace per server, the shape of the paper's Sec. 9
// evaluation (Fig. 7 replays six servers around the world) -- across an
// exec::ThreadPool. It is the one driver of independent shard replays:
// RunHierarchy's edge tier and RunColocated's servers are fleets too.
//
// Determinism contract (tested by sim_parallel_fleet_test, documented in
// docs/PARALLELISM.md): RunFleet's totals, steady-state windows, time
// series, efficiency numbers and merged metrics registry are bit-identical
// to running sim::Replay over the servers sequentially in order, for any
// thread count and any scheduling. This holds because each shard is a pure
// function of (cache kind, config, trace), shards share no mutable state,
// and all merging -- result vector, ReplayTotals sums, registry MergeFrom,
// trace-sink Append -- happens after the join in server order. Only
// wall-clock fields (wall_seconds, requests_per_second, span timings) vary
// between runs; they vary for sequential replays too.

#ifndef VCDN_SRC_SIM_PARALLEL_FLEET_H_
#define VCDN_SRC_SIM_PARALLEL_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/sim/replay.h"

namespace vcdn::sim {

// One server shard: an independent cache replaying its own request source.
// Exactly one of `trace` (materialized) or `stream` (streaming: generated
// lookahead, mmap'd trace file, ...) must be set. A stream factory runs on
// the shard's worker; if it builds a GeneratedStream with a generator pool,
// that pool must NOT be the one replaying the fleet (see
// src/trace/generated_stream.h on the deadlock hazard).
struct FleetServer {
  std::string name;  // label for trace lanes and reports
  core::CacheKind kind = core::CacheKind::kCafe;
  core::CacheConfig config;
  const trace::Trace* trace = nullptr;  // not owned; must outlive RunFleet
  StreamFactory stream;                 // streaming alternative to `trace`
};

struct FleetOptions {
  // Worker count: 0 selects hardware concurrency; 1 replays the shards
  // inline on the calling thread (the sequential reference, no pool built).
  size_t threads = 0;
  // Run on an existing pool instead of building one (threads is then
  // ignored). The pool's own obs instruments keep working.
  exec::ThreadPool* pool = nullptr;
  // Per-shard replay parameters. metrics/trace_sink receive the
  // deterministic in-order merge of per-shard recordings (each shard's
  // events land on trace lane obs::kFleetTidBase + shard index). on_outcome
  // must be unset: it would be invoked concurrently; use on_shard_outcome.
  // replay.faults applies per shard with fault target = shard index
  // (replay.fault_target is overwritten); see docs/FAULTS.md.
  ReplayOptions replay;
  // Optional per-request hook, called as (shard index, request, outcome) on
  // that shard's own worker wherever replay.on_outcome would be. Shards run
  // concurrently, so it may touch only state owned by that shard (this is
  // how RunHierarchy captures each edge's redirects).
  std::function<void(size_t, const trace::Request&, const core::RequestOutcome&)> on_shard_outcome;
};

struct FleetResult {
  std::vector<ReplayResult> servers;  // in FleetServer order
  // Fleet-wide sums of the per-server whole-run / steady-state totals.
  ReplayTotals totals;
  ReplayTotals steady;
  // Wall clock of the whole fleet run (trace generation excluded) and the
  // worker count actually used.
  double wall_seconds = 0.0;
  size_t threads = 1;
};

// Replays every server shard and merges the results in server order.
FleetResult RunFleet(const std::vector<FleetServer>& servers, const FleetOptions& options = {});

// FNV-1a digest over every deterministic field of the result (per-server
// totals, steady windows, series, efficiency summaries; wall-clock fields
// excluded). Equal digests across thread counts are the cheap determinism
// check printed by the benches.
uint64_t FleetDigest(const FleetResult& result);

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_PARALLEL_FLEET_H_
