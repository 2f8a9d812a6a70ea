// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/hierarchy.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/parallel_fleet.h"

namespace vcdn::sim {

namespace {

// Cost multiplier for each byte the origin serves because a CDN tier was
// down (relative to a normal origin byte): emergency origin capacity is
// more expensive than planned redirects.
constexpr double kOutagePenalty = 2.0;

// What one edge replay hands the parent phase. Strictly edge-local while
// the replay runs; combined in edge order after the join.
struct EdgeCapture {
  std::vector<trace::Request> redirects;  // in the edge's own order
  // Steady-state cost of the edge's unavailable bytes (outage penalty x
  // origin inflation), summed request by request.
  double outage_cost = 0.0;
};

}  // namespace

HierarchyResult RunHierarchy(const std::vector<trace::Trace>& edge_traces,
                             const HierarchyConfig& config) {
  const fault::FaultSchedule* faults = config.replay.faults;
  const double steady_fraction = config.replay.measurement_start_fraction;
  HierarchyResult result;

  // Phase 1: edges, as one fleet. Each replay writes only its own
  // EdgeCapture, so edges run concurrently; all combining happens after the
  // join, in edge order.
  std::vector<EdgeCapture> captures(edge_traces.size());
  std::vector<FleetServer> edges;
  double max_duration = 0.0;
  for (size_t i = 0; i < edge_traces.size(); ++i) {
    edges.push_back(FleetServer{"edge" + std::to_string(i), config.edge_kind, config.edge_config,
                                &edge_traces[i], {}});
    max_duration = std::max(max_duration, edge_traces[i].duration);
  }
  FleetOptions fleet;
  fleet.threads = config.threads;
  fleet.replay = config.replay;
  fleet.on_shard_outcome = [&](size_t edge, const trace::Request& request,
                               const core::RequestOutcome& outcome) {
    EdgeCapture& capture = captures[edge];
    if (outcome.decision == core::Decision::kRedirect) {
      capture.redirects.push_back(request);
    } else if (outcome.decision == core::Decision::kUnavailable &&
               request.arrival_time >= edge_traces[edge].duration * steady_fraction) {
      // Edge down: the origin serves this request directly, at a penalty.
      capture.outage_cost += static_cast<double>(outcome.requested_bytes) * kOutagePenalty *
                             faults->OriginCostFactor(request.arrival_time);
    }
  };
  // Merges edge obs in edge order before the parent records anything.
  result.edges = RunFleet(edges, fleet).servers;

  // Deterministic time-ordered merge: concatenated in edge order and sorted
  // stably, so ties keep (edge, sequence) order at any thread count.
  trace::Trace parent_trace;
  parent_trace.duration = max_duration;
  for (EdgeCapture& capture : captures) {
    parent_trace.requests.insert(parent_trace.requests.end(), capture.redirects.begin(),
                                 capture.redirects.end());
    capture.redirects.clear();
  }
  std::stable_sort(parent_trace.requests.begin(), parent_trace.requests.end(),
                   [](const trace::Request& a, const trace::Request& b) {
                     return a.arrival_time < b.arrival_time;
                   });

  // Phase 2: the parent replays every merged redirect, on the calling thread
  // in every mode (the edges have joined, so it runs alone). In a
  // parent-outage window its FaultDriver makes them kUnavailable: they fall
  // through to the origin without entering the parent cache, so its state is
  // exactly what an operator would see after the site came back.
  const double parent_steady_start = max_duration * steady_fraction;
  double parent_origin_cost = 0.0;
  double fallthrough_cost = 0.0;
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
    parent_options.on_outcome = [&](const trace::Request& request,
                                    const core::RequestOutcome& outcome) {
      const double t = request.arrival_time;
      if (t < parent_steady_start) {
        return;
      }
      if (outcome.decision == core::Decision::kRedirect) {
        // Planned parent->origin redirects, the normal third line of
        // defense: inflation, no outage penalty.
        parent_origin_cost +=
            static_cast<double>(outcome.requested_bytes) * faults->OriginCostFactor(t);
      } else if (outcome.decision == core::Decision::kUnavailable) {
        fallthrough_cost += static_cast<double>(outcome.requested_bytes) * kOutagePenalty *
                            faults->OriginCostFactor(t);
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
  result.parent_outage_bytes = result.parent.steady.unavailable_bytes;
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

  if (faults == nullptr) {
    result.origin_cost = static_cast<double>(result.origin_bytes);
    return result;
  }
  // Degraded-mode cost and the per-bucket outage-origin series, in a fixed
  // order: the parent's costs, then the edges in index order; the edges'
  // unavailable bytes in index order, then the parent's.
  result.origin_cost = parent_origin_cost + fallthrough_cost;
  for (const EdgeCapture& capture : captures) {
    result.origin_cost += capture.outage_cost;
  }
  size_t num_buckets = result.parent.series.size();
  for (const ReplayResult& edge : result.edges) {
    num_buckets = std::max(num_buckets, edge.series.size());
  }
  result.outage_origin_series.assign(num_buckets, 0.0);
  auto add_outages = [&](const ReplayResult& tier) {
    for (size_t b = 0; b < tier.series.size(); ++b) {
      result.outage_origin_series[b] += static_cast<double>(tier.series[b].unavailable_bytes);
    }
  };
  for (const ReplayResult& edge : result.edges) {
    add_outages(edge);
  }
  add_outages(result.parent);
  return result;
}

}  // namespace vcdn::sim
