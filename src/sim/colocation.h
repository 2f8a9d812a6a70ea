// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Co-located server simulation (paper footnote 2): dividing the file ID
// space over co-located servers with hash-mod bucketization "is a feasible
// (and recommended) practice ... to balance load and minimize co-located
// duplicates". This module splits one site's request stream across N
// co-located caches either by video-ID hash (the recommended practice) or
// uniformly at random (the strawman), and reports the aggregate effect:
// hash-mod keeps each video on exactly one server (no duplicate storage, a
// coherent popularity signal per server), while random splitting duplicates
// hot content on every server and dilutes each server's view of popularity.

#ifndef VCDN_SRC_SIM_COLOCATION_H_
#define VCDN_SRC_SIM_COLOCATION_H_

#include <cstdint>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/sim/replay.h"
#include "src/trace/request.h"

namespace vcdn::sim {

enum class ColocationPolicy {
  kHashMod,  // server = hash(video id) mod N (footnote 2's recommendation)
  kRandom,   // server chosen uniformly per request (strawman)
};

struct ColocationConfig {
  size_t num_servers = 4;
  ColocationPolicy policy = ColocationPolicy::kHashMod;
  core::CacheKind kind = core::CacheKind::kCafe;
  // Per-server cache config; total site disk = num_servers * this capacity.
  core::CacheConfig per_server_config;
  // Applied to every server as a sim::RunFleet fleet replayed inline:
  // on_outcome must be unset, and with replay.faults set server i is fault
  // target i (docs/FAULTS.md).
  ReplayOptions replay;
  uint64_t seed = 1;  // for the random policy
};

struct ColocationResult {
  std::vector<ReplayResult> servers;

  // Steady-state aggregates over all co-located servers.
  ReplayTotals combined;
  double combined_efficiency = 0.0;
  double combined_ingress_fraction = 0.0;
  double combined_redirect_fraction = 0.0;
  // max-over-servers / mean requested bytes (1.0 = perfectly balanced).
  double load_imbalance = 1.0;
};

// Splits the site trace per the policy and replays each shard on its own
// cache instance.
ColocationResult RunColocated(const trace::Trace& site_trace, const ColocationConfig& config);

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_COLOCATION_H_
