// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Per-server workload profiles standing in for the paper's six anonymized
// production servers (one each in Africa, Asia, Australia, Europe, North and
// South America). The paper reports that the servers differ in "request
// volume and diversity compared to the same 1 TB disk size given to all"
// (Section 9, Fig. 7): the Asian server serves "more limited requests" (hence
// higher efficiency) while the South American one is busier with a wider gap
// between xLRU and the other algorithms. The profiles below encode exactly
// those axes: request rate, catalog breadth, popularity skew, churn, and
// local-time diurnal phase.

#ifndef VCDN_SRC_TRACE_SERVER_PROFILE_H_
#define VCDN_SRC_TRACE_SERVER_PROFILE_H_

#include <string>
#include <string_view>
#include <vector>

namespace vcdn::trace {

struct ServerProfile {
  std::string name;

  // Average request arrival rate (requests/second) before diurnal modulation.
  double base_request_rate = 0.2;
  // Diurnal modulation amplitude in [0, 1): rate(t) = base * (1 + a*shape(t)).
  double diurnal_amplitude = 0.55;
  // Timezone offset in hours relative to trace origin (shifts the diurnal peak).
  double timezone_offset_hours = 0.0;

  // Catalog breadth (request diversity): number of videos with nonzero demand
  // at this server.
  size_t catalog_size = 30000;
  // Popularity skew across the catalog: Pareto shape for per-video base
  // weights. Smaller shape => heavier weight tail => demand concentrates on
  // a few very hot videos (narrow request profile, cache-friendly); larger
  // shape => flatter popularity => more diverse requests.
  double popularity_shape = 1.05;
  // Fraction of videos with stable (evergreen) popularity; the rest are
  // transient with exponentially decaying demand.
  double evergreen_fraction = 0.35;
  // New uploads per day (catalog churn).
  double new_videos_per_day = 400.0;
  // Mean decay constant for transient videos, in days.
  double transient_tau_days = 4.0;

  // Video size model: log-normal over bytes, clamped to [min, max].
  double size_lognormal_mu = 17.2;     // exp(17.2) ~ 29.5 MB median
  double size_lognormal_sigma = 0.85;  // long tail of bigger files
  uint64_t min_video_bytes = 2ull << 20;
  uint64_t max_video_bytes = 512ull << 20;  // at most kMaxVideoBytes

  // Intra-file access pattern: probability a view starts at byte 0, and the
  // mean viewed fraction of the file for a view (exponentially distributed,
  // truncated at the end of the file). Early segments are hottest (Sec. 2).
  double start_at_zero_probability = 0.62;
  double mean_view_fraction = 0.34;
};

// The largest scale the profiles below take.
inline constexpr double kMaxProfileScale = 4.0;

// The six paper servers. `scale` in (0, kMaxProfileScale] proportionally
// scales request rate, catalog size and churn together, preserving the
// working-set-to-disk ratio when the disk is scaled by the same factor.
// Profiles are ordered as in Fig. 7: Africa, Asia, Australia, Europe, N.
// America, S. America.
std::vector<ServerProfile> PaperServerProfiles(double scale = 1.0);

// The six paper servers' names, in PaperServerProfiles' order.
std::vector<std::string> PaperServerNames();

// The paper server called `name`, one of PaperServerNames().
ServerProfile PaperServerProfile(std::string_view name, double scale = 1.0);

// The Europe profile alone (the paper's reference server for Figs. 3-6).
ServerProfile EuropeProfile(double scale = 1.0);

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_SERVER_PROFILE_H_
