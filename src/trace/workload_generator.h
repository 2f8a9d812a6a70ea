// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Synthetic planet-scale video CDN workload generator.
//
// This is the documented substitution (see DESIGN.md) for the paper's
// proprietary one-month production logs. It reproduces the workload
// properties the paper's evaluation depends on:
//
//   * Zipf-like long-tailed video popularity ("a long, heavy tail in the
//     access frequency curve", Sec. 3) via Pareto-distributed per-video
//     weights;
//   * catalog churn and transient demand (">100,000 hours uploaded per day",
//     Sec. 1; "transient demand patterns", Sec. 1) via Poisson new-video
//     arrivals and exponentially decaying per-video demand;
//   * diurnal load ("a diurnal pattern in both ingress and redirection",
//     Sec. 9 / Fig. 3) via sinusoidal rate modulation in server-local time;
//   * intra-file popularity skew ("the first segments of the video often
//     receive the highest number of hits", Sec. 2) via start-at-zero views
//     and exponentially distributed partial view lengths;
//   * per-server volume/diversity differences (Fig. 7) via ServerProfile.
//
// Generation is fully deterministic for a given (profile, seed).

#ifndef VCDN_SRC_TRACE_WORKLOAD_GENERATOR_H_
#define VCDN_SRC_TRACE_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/trace/catalog.h"
#include "src/trace/request.h"
#include "src/trace/server_profile.h"
#include "src/util/distributions.h"
#include "src/util/rng.h"

namespace vcdn::trace {

struct WorkloadConfig {
  ServerProfile profile;
  uint64_t seed = 1;
  double duration_seconds = 30.0 * 86400.0;
  // How often the popularity distribution (alias table) is refreshed to
  // account for churn and decay.
  double popularity_refresh_seconds = 6.0 * 3600.0;
  // Demand ramp-up period for a newly uploaded video.
  double new_video_ramp_seconds = 2.0 * 3600.0;
  // Videos whose current demand weight falls below this fraction of their
  // base weight are dropped from the sampling table (dead transients).
  double weight_floor_fraction = 1e-4;
  // Optional instrument registry: Generate() records the catalog size, the
  // number of generated requests and the realized arrival rate under
  // "workload.*". Not owned; may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

struct GeneratedWorkload {
  Trace trace;
  Catalog catalog;
};

// Incremental form of WorkloadGenerator::Generate(): the catalog is built
// eagerly in the constructor (consuming the catalog RNG stream exactly as
// Generate() does), then requests are produced one popularity-refresh window
// at a time. Windows are order-dependent -- each consumes the arrival/pick/
// range RNG streams sequentially -- so the concatenation of all windows is
// bit-identical to the materialized trace for the same config. This is the
// engine behind both Generate() (loop and append) and GeneratedStream
// (generate-as-you-replay with bounded lookahead).
class WindowedWorkload {
 public:
  explicit WindowedWorkload(WorkloadConfig config);

  const Catalog& catalog() const { return catalog_; }
  double duration() const { return config_.duration_seconds; }
  const WorkloadConfig& config() const { return config_; }

  // Appends the next window's requests to `out` (possibly none: windows with
  // no active videos or no accepted arrivals are legitimately empty).
  // Returns false once the trace is exhausted (nothing appended).
  bool NextWindow(std::vector<Request>* out);

  // Moves the catalog out; only meaningful once NextWindow() has returned
  // false (the engine samples from the catalog while windows remain).
  Catalog TakeCatalog() { return std::move(catalog_); }

 private:
  // Rebuilds active_ and table_ from demand weights at `window_mid`.
  void RefreshActive(double window_mid);
  // Fills arrivals_ with the window's accepted arrival times.
  void DrawArrivals(double window_end);
  // Re-bounds the thinning acceptance over the slice starting at `t`.
  void StartSlice(double t);

  WorkloadConfig config_;
  Catalog catalog_;
  util::Pcg32 arrival_rng_;
  util::Pcg32 pick_rng_;
  util::Pcg32 range_rng_;
  double lambda_max_;
  double window_start_ = 0.0;
  // Catalog indices that can still carry weight, in catalog order: a video
  // joins once a window midpoint reaches its birth and a transient leaves
  // once it has decayed for good. next_birth_ is the first index not joined.
  std::vector<uint32_t> live_;
  size_t next_birth_ = 0;
  // The window's sampling table and, per column, its catalog index and
  // weight.
  std::vector<uint32_t> active_;
  std::vector<double> active_weights_;
  util::AliasTable table_;
  // The window's accepted arrivals and their picks (indices into active_).
  std::vector<double> arrivals_;
  std::vector<uint32_t> picks_;
  // Bounds on the thinning acceptance over [slice start, slice_end_).
  double slice_end_ = -1.0;
  double accept_lo_ = 0.0;
  double accept_hi_ = 0.0;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  // Generates the catalog and the full request trace. Deterministic.
  GeneratedWorkload Generate();

  // Demand-rate multiplier at absolute trace time t (server-local diurnal
  // cycle plus a mild weekly component). Exposed for tests.
  static double DiurnalFactor(const ServerProfile& profile, double t);

  // Demand weight of a video at time t given its metadata (0 before birth,
  // ramp after upload, exponential decay for transients). Exposed for tests.
  static double VideoWeightAt(const VideoMeta& video, double t, const WorkloadConfig& config);

 private:
  WorkloadConfig config_;
};

struct ParallelGenerateOptions {
  // Worker count: 0 selects hardware concurrency, 1 generates inline on the
  // calling thread (no pool built).
  size_t threads = 0;
};

// Generates one workload per config, sharding the (independent) generations
// across a thread pool. Bit-identical to calling Generate() on each config in
// order, for any thread count: generation is a pure function of its config,
// and per-config metrics recordings are buffered locally and merged in config
// order after the join. Give each server its own decorrelated RNG stream with
// util::SplitSeed(base_seed, server_index).
std::vector<GeneratedWorkload> GenerateWorkloads(const std::vector<WorkloadConfig>& configs,
                                                 const ParallelGenerateOptions& options = {});

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_WORKLOAD_GENERATOR_H_
