// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/hierarchy.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "src/exec/fan_out.h"
#include "src/sim/shard_telemetry.h"
#include "src/util/stats.h"

namespace vcdn::sim {

namespace {

// A redirect captured at an edge, tagged with its origin so the parent's
// request stream can be merged deterministically: ordering by (arrival time,
// edge, sequence) reproduces exactly what the sequential concatenate-then-
// stable_sort produced.
struct TaggedRedirect {
  trace::Request request;
  size_t edge = 0;
  uint64_t seq = 0;
};

// Everything one edge replay produces for the merge phase. Strictly
// edge-local while the replay runs; combined in edge order after the join.
struct EdgeCapture {
  std::vector<TaggedRedirect> redirects;
  // Per-bucket bytes this edge's outage windows pushed to the origin.
  util::BucketedSeries outage_series;
  // Steady-state cost of those bytes (outage_penalty x origin inflation).
  double outage_cost = 0.0;
  // The edge's covered time span, reported back so the parent phase can
  // size its window after the join (streamed edges have no trace to ask).
  double duration = 0.0;

  explicit EdgeCapture(double bucket_seconds) : outage_series(0.0, bucket_seconds) {}
};

// One edge's request source: a materialized trace or a stream factory,
// never both.
struct EdgeSource {
  const trace::Trace* trace = nullptr;
  const StreamFactory* factory = nullptr;
};

// Replays one edge with a local redirect capture and shard-local telemetry,
// so edges can run concurrently and still merge exactly.
void RunEdge(const EdgeSource& source, const HierarchyConfig& config, size_t edge_index,
             ShardTelemetry& telemetry, ReplayResult& result_out, EdgeCapture& capture) {
  auto edge = core::MakeCache(config.edge_kind, config.edge_config);
  ReplayOptions options = telemetry.ShardOptions(edge_index);
  options.flight_label = "edge" + std::to_string(edge_index);
  options.faults = config.faults;
  options.fault_target = edge_index;
  std::unique_ptr<trace::RequestStream> stream;
  if (source.trace == nullptr) {
    // Built on this edge's worker, so producer state lives with the edge.
    stream = (*source.factory)();
  }
  const double duration = source.trace != nullptr ? source.trace->duration : stream->duration();
  const double steady_start = duration * options.measurement_start_fraction;
  uint64_t seq = 0;
  options.on_outcome = [&](const trace::Request& request, const core::RequestOutcome& outcome) {
    if (outcome.decision == core::Decision::kRedirect) {
      capture.redirects.push_back(TaggedRedirect{request, edge_index, seq++});
    } else if (outcome.decision == core::Decision::kUnavailable) {
      // Edge down: the origin serves this request directly, at a penalty.
      auto bytes = static_cast<double>(outcome.requested_bytes);
      capture.outage_series.Add(request.arrival_time, bytes);
      if (request.arrival_time >= steady_start) {
        capture.outage_cost += bytes * config.outage_penalty *
                               config.faults->OriginCostFactor(request.arrival_time);
      }
    }
  };
  result_out = source.trace != nullptr ? Replay(*edge, *source.trace, options)
                                       : ReplayStream(*edge, *stream, options);
  capture.duration = duration;
}

HierarchyResult RunHierarchyImpl(const std::vector<EdgeSource>& edge_sources,
                                 const HierarchyConfig& config) {
  VCDN_CHECK(!edge_sources.empty());
  // The hierarchy owns the replay loop's callbacks and the fault wiring.
  VCDN_CHECK(config.replay.on_outcome == nullptr);
  VCDN_CHECK(config.replay.faults == nullptr);

  const size_t num_edges = edge_sources.size();
  HierarchyResult result;
  result.edges.resize(num_edges);

  // Per-edge local obs, merged in edge order below (identical for any thread
  // count; see docs/PARALLELISM.md).
  ShardTelemetry telemetry(config.replay, num_edges);

  exec::ThreadPool* pool = config.pool;
  std::optional<exec::ThreadPool> owned_pool;
  if (pool == nullptr && config.threads != 1) {
    exec::ThreadPoolOptions pool_options;
    pool_options.num_threads = config.threads;
    pool_options.metrics = config.replay.metrics;
    pool_options.trace_sink = config.replay.trace_sink;
    owned_pool.emplace(pool_options);
    pool = &*owned_pool;
  }

  // Phase 1: edges. Each replay writes only its own EdgeCapture, so edges
  // run concurrently; all combining happens after the join, in edge order.
  std::vector<EdgeCapture> captures;
  captures.reserve(num_edges);
  for (size_t i = 0; i < num_edges; ++i) {
    captures.emplace_back(config.replay.bucket_seconds);
  }
  if (pool == nullptr) {
    for (size_t i = 0; i < num_edges; ++i) {
      RunEdge(edge_sources[i], config, i, telemetry, result.edges[i], captures[i]);
    }
  } else {
    // A streamed edge's length is unknown until it has been replayed.
    std::vector<double> sizes;
    sizes.reserve(num_edges);
    for (const EdgeSource& source : edge_sources) {
      sizes.push_back(source.trace != nullptr ? static_cast<double>(source.trace->requests.size())
                                              : 0.0);
    }
    exec::RunLargestFirst(
        *pool, sizes,
        [&](size_t i) {
          RunEdge(edge_sources[i], config, i, telemetry, result.edges[i], captures[i]);
        },
        [](size_t) { return "hierarchy.edge"; });
  }
  // Known only now for streamed edges (each reported its stream's span).
  double max_duration = 0.0;
  for (const EdgeCapture& capture : captures) {
    max_duration = std::max(max_duration, capture.duration);
  }
  std::vector<TaggedRedirect> tagged;
  for (EdgeCapture& capture : captures) {
    tagged.insert(tagged.end(), std::make_move_iterator(capture.redirects.begin()),
                  std::make_move_iterator(capture.redirects.end()));
    capture.redirects.clear();
  }

  // Deterministic time-ordered merge (ties broken by (edge, sequence), the
  // order the sequential stable_sort over in-order concatenation yields).
  std::sort(tagged.begin(), tagged.end(), [](const TaggedRedirect& a, const TaggedRedirect& b) {
    if (a.request.arrival_time != b.request.arrival_time) {
      return a.request.arrival_time < b.request.arrival_time;
    }
    if (a.edge != b.edge) {
      return a.edge < b.edge;
    }
    return a.seq < b.seq;
  });

  // Merge edge obs in edge order before the parent records anything.
  telemetry.MergeInto();

  // Phase 2: parent sees the merged redirect stream. Redirects arriving in a
  // parent-outage window fall through to the origin right here -- they never
  // enter the parent cache, so its state is exactly what an operator would
  // see after the site came back.
  const double parent_steady_start = max_duration * config.replay.measurement_start_fraction;
  util::BucketedSeries fallthrough_series(0.0, config.replay.bucket_seconds);
  uint64_t parent_fallthrough_bytes = 0;
  double fallthrough_cost = 0.0;
  trace::Trace parent_trace;
  parent_trace.requests.reserve(tagged.size());
  for (TaggedRedirect& redirect : tagged) {
    const double t = redirect.request.arrival_time;
    if (config.faults != nullptr && config.faults->ParentDown(t)) {
      const uint64_t bytes = redirect.request.size_bytes();
      fallthrough_series.Add(t, static_cast<double>(bytes));
      if (t >= parent_steady_start) {
        parent_fallthrough_bytes += bytes;
        fallthrough_cost += static_cast<double>(bytes) * config.outage_penalty *
                            config.faults->OriginCostFactor(t);
      }
      continue;
    }
    parent_trace.requests.push_back(redirect.request);
  }
  parent_trace.duration = max_duration;

  // The parent replays on the calling thread in every mode: the edges have
  // joined, so it runs alone.
  double parent_origin_cost = 0.0;
  auto parent = core::MakeCache(config.parent_kind, config.parent_config);
  ReplayOptions parent_options = config.replay;  // shared obs: parent runs alone
  // The series stays edge-tier-only: the caller's recorder baselines the
  // shared registry, which at this point already holds the merged edge
  // counts -- snapshotting it from the parent replay would fold the whole
  // edge tier into the parent's first window.
  parent_options.series = nullptr;
  // The shared flight ring is safe here (the parent runs alone, after the
  // edge rings merged), so parent decisions land at the tail -- exactly
  // where a sequential two-tier replay would put them.
  parent_options.flight_label = "parent";
  if (config.faults != nullptr) {
    parent_options.faults = config.faults;
    parent_options.fault_target = fault::kParentTarget;
    // Charge planned parent->origin redirects at the schedule's inflation
    // (no outage penalty: these are the normal third line of defense).
    parent_options.on_outcome = [&](const trace::Request& request,
                                    const core::RequestOutcome& outcome) {
      if (outcome.decision == core::Decision::kRedirect &&
          request.arrival_time >= parent_steady_start) {
        parent_origin_cost += static_cast<double>(outcome.requested_bytes) *
                              config.faults->OriginCostFactor(request.arrival_time);
      }
    };
  }
  result.parent = Replay(*parent, parent_trace, parent_options);
  if (owned_pool.has_value()) {
    owned_pool->Shutdown();
  }

  // CDN-wide aggregates (steady-state windows).
  for (const ReplayResult& edge : result.edges) {
    result.requested_bytes += edge.steady.requested_bytes;
    result.edge_served_bytes += edge.steady.served_bytes;
    result.edge_filled_bytes += edge.steady.filled_bytes;
    result.edge_unavailable_bytes += edge.steady.unavailable_bytes;
  }
  result.parent_served_bytes = result.parent.steady.served_bytes;
  result.parent_filled_bytes = result.parent.steady.filled_bytes;
  result.parent_outage_bytes = parent_fallthrough_bytes + result.parent.steady.unavailable_bytes;
  // Everything the CDN could not absorb lands on the origin, so byte
  // conservation holds with or without fault injection.
  result.origin_bytes = result.parent.steady.redirected_bytes + result.edge_unavailable_bytes +
                        result.parent_outage_bytes;
  if (result.requested_bytes > 0) {
    result.edge_hit_fraction =
        static_cast<double>(result.edge_served_bytes) / static_cast<double>(result.requested_bytes);
    result.cdn_hit_fraction =
        static_cast<double>(result.edge_served_bytes + result.parent_served_bytes) /
        static_cast<double>(result.requested_bytes);
    result.availability = 1.0 - static_cast<double>(result.edge_unavailable_bytes +
                                                    result.parent_outage_bytes) /
                                    static_cast<double>(result.requested_bytes);
  }

  // Degraded-mode cost and per-bucket outage-origin series (fixed summation
  // order: edges in index order, then the parent fallthrough stream).
  if (config.faults != nullptr) {
    double origin_cost = parent_origin_cost + fallthrough_cost;
    size_t num_buckets = fallthrough_series.num_buckets();
    for (const EdgeCapture& capture : captures) {
      origin_cost += capture.outage_cost;
      num_buckets = std::max(num_buckets, capture.outage_series.num_buckets());
    }
    result.origin_cost = origin_cost;
    result.outage_origin_series.assign(num_buckets, 0.0);
    for (const EdgeCapture& capture : captures) {
      for (size_t b = 0; b < capture.outage_series.num_buckets(); ++b) {
        result.outage_origin_series[b] += capture.outage_series.sum(b);
      }
    }
    for (size_t b = 0; b < fallthrough_series.num_buckets(); ++b) {
      result.outage_origin_series[b] += fallthrough_series.sum(b);
    }
    for (const ReplayResult& edge : result.edges) {
      result.faults.Add(edge.faults);
    }
    result.faults.Add(result.parent.faults);
  } else {
    result.origin_cost = static_cast<double>(result.origin_bytes);
  }
  return result;
}

}  // namespace

HierarchyResult RunHierarchy(const std::vector<trace::Trace>& edge_traces,
                             const HierarchyConfig& config) {
  std::vector<EdgeSource> sources(edge_traces.size());
  for (size_t i = 0; i < edge_traces.size(); ++i) {
    sources[i].trace = &edge_traces[i];
  }
  return RunHierarchyImpl(sources, config);
}

HierarchyResult RunHierarchy(const std::vector<StreamFactory>& edge_streams,
                             const HierarchyConfig& config) {
  std::vector<EdgeSource> sources(edge_streams.size());
  for (size_t i = 0; i < edge_streams.size(); ++i) {
    VCDN_CHECK(edge_streams[i] != nullptr);
    sources[i].factory = &edge_streams[i];
  }
  return RunHierarchyImpl(sources, config);
}

}  // namespace vcdn::sim
