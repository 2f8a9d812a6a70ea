// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/hierarchy.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/parallel_fleet.h"
#include "src/util/stats.h"

namespace vcdn::sim {

namespace {

// Cost multiplier for each byte the origin serves because a CDN tier was
// down (relative to a normal origin byte): emergency origin capacity is
// more expensive than planned redirects.
constexpr double kOutagePenalty = 2.0;

// Everything one edge replay produces for the merge phase. Strictly
// edge-local while the replay runs; combined in edge order after the join.
struct EdgeCapture {
  std::vector<trace::Request> redirects;  // in the edge's own order
  // Per-bucket bytes this edge's outage windows pushed to the origin.
  util::BucketedSeries outage_series;
  // Steady-state cost of those bytes (outage penalty x origin inflation).
  double outage_cost = 0.0;
  // The edge's covered time span, set before its replay starts (a streamed
  // edge's is known only once its stream exists), so the outage cost can
  // find the steady window and the parent phase can size its own.
  double duration = 0.0;

  explicit EdgeCapture(double bucket_seconds) : outage_series(0.0, bucket_seconds) {}
};

// Edge i of the fleet, without its request source.
FleetServer EdgeServer(size_t edge, const HierarchyConfig& config) {
  FleetServer server;
  server.name = "edge" + std::to_string(edge);
  server.kind = config.edge_kind;
  server.config = config.edge_config;
  return server;
}

// Replays the edges as one fleet, each capturing its redirects and outage
// traffic into its own EdgeCapture, then the parent over the merged
// redirects.
HierarchyResult RunEdgesThenParent(const std::vector<FleetServer>& edges,
                                   std::vector<EdgeCapture>& captures,
                                   const HierarchyConfig& config) {
  const fault::FaultSchedule* faults = config.replay.faults;
  HierarchyResult result;

  // Phase 1: edges. Each replay writes only its own EdgeCapture, so edges
  // run concurrently; all combining happens after the join, in edge order.
  FleetOptions fleet;
  fleet.threads = config.threads;
  fleet.replay = config.replay;
  fleet.on_shard_outcome = [&](size_t edge, const trace::Request& request,
                               const core::RequestOutcome& outcome) {
    EdgeCapture& capture = captures[edge];
    if (outcome.decision == core::Decision::kRedirect) {
      capture.redirects.push_back(request);
    } else if (outcome.decision == core::Decision::kUnavailable) {
      // Edge down: the origin serves this request directly, at a penalty.
      auto bytes = static_cast<double>(outcome.requested_bytes);
      capture.outage_series.Add(request.arrival_time, bytes);
      if (request.arrival_time >= capture.duration * config.replay.measurement_start_fraction) {
        capture.outage_cost +=
            bytes * kOutagePenalty * faults->OriginCostFactor(request.arrival_time);
      }
    }
  };
  // Merges edge obs in edge order before the parent records anything.
  result.edges = RunFleet(edges, fleet).servers;

  // Known only now for streamed edges (each reported its stream's span).
  double max_duration = 0.0;
  for (const EdgeCapture& capture : captures) {
    max_duration = std::max(max_duration, capture.duration);
  }
  // Deterministic time-ordered merge: concatenated in edge order and sorted
  // stably, so ties keep (edge, sequence) order at any thread count.
  std::vector<trace::Request> redirects;
  for (EdgeCapture& capture : captures) {
    redirects.insert(redirects.end(), capture.redirects.begin(), capture.redirects.end());
    capture.redirects.clear();
  }
  std::stable_sort(redirects.begin(), redirects.end(),
                   [](const trace::Request& a, const trace::Request& b) {
                     return a.arrival_time < b.arrival_time;
                   });

  // Phase 2: parent sees the merged redirect stream. Redirects arriving in a
  // parent-outage window fall through to the origin right here -- they never
  // enter the parent cache, so its state is exactly what an operator would
  // see after the site came back.
  const double parent_steady_start = max_duration * config.replay.measurement_start_fraction;
  util::BucketedSeries fallthrough_series(0.0, config.replay.bucket_seconds);
  uint64_t parent_fallthrough_bytes = 0;
  double fallthrough_cost = 0.0;
  trace::Trace parent_trace;
  parent_trace.requests.reserve(redirects.size());
  for (const trace::Request& redirect : redirects) {
    const double t = redirect.arrival_time;
    if (faults != nullptr && faults->ParentDown(t)) {
      const uint64_t bytes = redirect.size_bytes();
      fallthrough_series.Add(t, static_cast<double>(bytes));
      if (t >= parent_steady_start) {
        parent_fallthrough_bytes += bytes;
        fallthrough_cost +=
            static_cast<double>(bytes) * kOutagePenalty * faults->OriginCostFactor(t);
      }
      continue;
    }
    parent_trace.requests.push_back(redirect);
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
  if (faults != nullptr) {
    parent_options.fault_target = fault::kParentTarget;
    // Charge planned parent->origin redirects at the schedule's inflation
    // (no outage penalty: these are the normal third line of defense).
    parent_options.on_outcome = [&](const trace::Request& request,
                                    const core::RequestOutcome& outcome) {
      if (outcome.decision == core::Decision::kRedirect &&
          request.arrival_time >= parent_steady_start) {
        parent_origin_cost += static_cast<double>(outcome.requested_bytes) *
                              faults->OriginCostFactor(request.arrival_time);
      }
    };
  }
  result.parent = Replay(*parent, parent_trace, parent_options);

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
  if (faults != nullptr) {
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
  std::vector<EdgeCapture> captures(edge_traces.size(), EdgeCapture(config.replay.bucket_seconds));
  std::vector<FleetServer> edges;
  for (size_t i = 0; i < edge_traces.size(); ++i) {
    captures[i].duration = edge_traces[i].duration;
    edges.push_back(EdgeServer(i, config));
    edges.back().trace = &edge_traces[i];
  }
  return RunEdgesThenParent(edges, captures, config);
}

HierarchyResult RunHierarchy(const std::vector<StreamFactory>& edge_streams,
                             const HierarchyConfig& config) {
  std::vector<EdgeCapture> captures(edge_streams.size(),
                                    EdgeCapture(config.replay.bucket_seconds));
  std::vector<FleetServer> edges;
  for (size_t i = 0; i < edge_streams.size(); ++i) {
    VCDN_CHECK(edge_streams[i] != nullptr);
    edges.push_back(EdgeServer(i, config));
    // Runs on the edge's worker: the capture learns the duration before the
    // replay reads its first request.
    edges.back().stream = [&factory = edge_streams[i], &capture = captures[i]] {
      std::unique_ptr<trace::RequestStream> stream = factory();
      capture.duration = stream->duration();
      return stream;
    };
  }
  return RunEdgesThenParent(edges, captures, config);
}

}  // namespace vcdn::sim
