// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/colocation.h"

#include <algorithm>

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

  ColocationResult result;
  uint64_t max_requested = 0;
  uint64_t total_requested = 0;
  for (size_t s = 0; s < config.num_servers; ++s) {
    auto cache = core::MakeCache(config.kind, config.per_server_config);
    ReplayResult server_result = Replay(*cache, shards[s], config.replay);
    max_requested = std::max(max_requested, server_result.steady.requested_bytes);
    total_requested += server_result.steady.requested_bytes;
    result.combined.Add(server_result.steady);
    result.servers.push_back(std::move(server_result));
  }

  core::CostModel cost(config.per_server_config.alpha_f2r);
  if (result.combined.requested_bytes > 0) {
    result.combined_efficiency = result.combined.Efficiency(cost);
    result.combined_ingress_fraction = result.combined.IngressFraction();
    result.combined_redirect_fraction = result.combined.RedirectFraction();
  }
  double mean_requested =
      static_cast<double>(total_requested) / static_cast<double>(config.num_servers);
  result.load_imbalance =
      mean_requested > 0.0 ? static_cast<double>(max_requested) / mean_requested : 1.0;
  return result;
}

}  // namespace vcdn::sim
