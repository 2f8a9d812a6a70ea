// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/colocation.h"

#include <algorithm>
#include <utility>

#include "src/sim/parallel_fleet.h"
#include "src/util/rng.h"

namespace vcdn::sim {

ColocationResult RunColocated(const trace::Trace& site_trace, const ColocationConfig& config) {
  VCDN_CHECK(config.num_servers > 0);
  util::Pcg32 rng(config.seed, /*stream=*/77);

  // Shard the request stream.
  std::vector<trace::Trace> shards(config.num_servers);
  for (auto& shard : shards) {
    shard.duration = site_trace.duration;
  }
  for (const trace::Request& r : site_trace.requests) {
    size_t server;
    if (config.policy == ColocationPolicy::kHashMod) {
      // SplitMix64's first output is a stable 64-bit mix of the id, so shard
      // assignment is reproducible and uncorrelated with id locality.
      server = static_cast<size_t>(util::SplitMix64(r.video).Next() % config.num_servers);
    } else {
      server = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(config.num_servers)));
    }
    shards[server].requests.push_back(r);
  }

  // The co-located servers are a fleet replayed inline: server i is fault
  // target i, like every other shard set.
  std::vector<FleetServer> servers(config.num_servers);
  for (size_t s = 0; s < config.num_servers; ++s) {
    servers[s].kind = config.kind;
    servers[s].config = config.per_server_config;
    servers[s].trace = &shards[s];
  }
  FleetOptions options;
  options.threads = 1;
  options.replay = config.replay;
  FleetResult fleet = RunFleet(servers, options);

  ColocationResult result;
  result.servers = std::move(fleet.servers);
  result.combined = fleet.steady;
  uint64_t max_requested = 0;
  for (const ReplayResult& server : result.servers) {
    max_requested = std::max(max_requested, server.steady.requested_bytes);
  }

  core::CostModel cost(config.per_server_config.alpha_f2r);
  if (result.combined.requested_bytes > 0) {
    result.combined_efficiency = result.combined.Efficiency(cost);
    result.combined_ingress_fraction = result.combined.IngressFraction();
    result.combined_redirect_fraction = result.combined.RedirectFraction();
  }
  double mean_requested = static_cast<double>(result.combined.requested_bytes) /
                          static_cast<double>(config.num_servers);
  result.load_imbalance =
      mean_requested > 0.0 ? static_cast<double>(max_requested) / mean_requested : 1.0;
  return result;
}

}  // namespace vcdn::sim
