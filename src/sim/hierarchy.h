// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Two-tier CDN simulation: edge servers redirect their cache misses to a
// shared parent ("a higher level, larger serving site in a cache hierarchy,
// which captures redirects of its downstream servers", Sec. 2). This
// implements the paper's future-work direction of CDN-wide operation on top
// of per-server alpha_F2R-governed caches (Sec. 10).
//
// Mechanics: each edge replays its own trace; every redirected request is
// forwarded (same timestamp) to the parent, whose request stream is the
// time-ordered merge of all edge redirects. Whatever the parent redirects is
// served by the origin. The CDN-wide cost charges edge fills, parent fills
// and origin-served bytes with configurable per-tier costs.
//
// The edge tier is a sim::RunFleet fleet (threads != 1 shards it across a
// pool); everything that touches the shared second tier -- the redirect
// merge and the parent replay itself -- runs on the calling thread once the
// edges have joined. Results are bit-identical to the sequential run for any
// thread count: each edge captures its own redirects, and after the join
// they are concatenated in edge order and stably sorted by arrival time, so
// ties resolve in (edge, sequence) order. See docs/PARALLELISM.md.
//
// Fault injection (replay.faults, see docs/FAULTS.md): the defense lines
// degrade tier by tier, each decided by the FaultDriver inside that tier's
// own replay. An edge-outage window turns that edge's requests into
// Decision::kUnavailable -- origin-served directly, charged a fixed outage
// penalty (2x) per byte. A parent-outage window does the same to the edge
// redirects reaching the parent replay in it: they fall through to the
// origin without entering the parent cache, same penalty. Disk-degrade
// windows Resize() the target cache and cold restarts DropContents() it.
// Origin inflation scales the cost of every origin-served byte during its
// window. All of it is clocked by request arrival times, so results stay
// bit-identical across thread counts.

#ifndef VCDN_SRC_SIM_HIERARCHY_H_
#define VCDN_SRC_SIM_HIERARCHY_H_

#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/sim/replay.h"
#include "src/trace/request.h"

namespace vcdn::sim {

struct HierarchyConfig {
  core::CacheKind edge_kind = core::CacheKind::kCafe;
  core::CacheConfig edge_config;
  core::CacheKind parent_kind = core::CacheKind::kCafe;
  core::CacheConfig parent_config;  // typically a deeper cache, lower alpha
  // on_outcome must be unset (the hierarchy owns the replay loop);
  // metrics/trace_sink/flight receive the edge recordings merged in edge
  // order, then the parent's; series records the edge tier only. With
  // replay.faults set (it must outlive the run), edge i is fault target i
  // and the parent is fault::kParentTarget.
  ReplayOptions replay;
  // Edge-replay worker count: 1 (default) runs sequentially on the calling
  // thread, 0 selects hardware concurrency.
  size_t threads = 1;
};

struct HierarchyResult {
  std::vector<ReplayResult> edges;
  ReplayResult parent;

  // CDN-wide steady-state aggregates.
  uint64_t requested_bytes = 0;      // user demand at the edges
  uint64_t edge_served_bytes = 0;    // served directly by an edge
  uint64_t edge_filled_bytes = 0;    // edge ingress
  uint64_t parent_served_bytes = 0;  // edge misses absorbed by the parent
  uint64_t parent_filled_bytes = 0;  // parent ingress (from origin)
  // Served by the origin: parent redirects plus all outage fallbacks, so
  // edge_served + parent_served + origin == requested still holds under
  // fault injection.
  uint64_t origin_bytes = 0;

  // Fraction of user demand that never left the CDN's edge tier / the CDN.
  double edge_hit_fraction = 0.0;
  double cdn_hit_fraction = 0.0;

  // --- degraded-mode accounting (zero without fault injection) ---
  // Steady-state bytes origin-served because an edge was down...
  uint64_t edge_unavailable_bytes = 0;
  // ...and because the parent was down when an edge redirect arrived
  // (parent.steady.unavailable_bytes).
  uint64_t parent_outage_bytes = 0;
  // Fraction of steady-state demand served without an outage fallback.
  double availability = 1.0;
  // Steady-state origin cost: every origin-served byte weighted by the
  // schedule's origin inflation at its arrival time, outage fallbacks
  // additionally by the outage penalty. (requested-byte units; 1.0 per
  // normal origin byte.)
  double origin_cost = 0.0;
  // Whole-run, per replay bucket: origin bytes due to outage fallbacks, the
  // series' unavailable_bytes of every edge, then of the parent; as long as
  // the longest tier series, and empty without replay.faults. Shows the
  // origin absorbing a defense line's traffic during a window and
  // recovering after it.
  std::vector<double> outage_origin_series;
};

// Runs the two-tier simulation over one trace per edge server.
HierarchyResult RunHierarchy(const std::vector<trace::Trace>& edge_traces,
                             const HierarchyConfig& config);

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_HIERARCHY_H_
