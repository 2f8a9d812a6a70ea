// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/workload_generator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "src/exec/fan_out.h"
#include "src/util/check.h"
#include "src/util/distributions.h"

namespace vcdn::trace {

namespace {

constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;
// Age of the oldest pre-existing catalog entries relative to trace start.
constexpr double kCatalogHistorySeconds = 45.0 * kSecondsPerDay;
// Minimum bytes a view consumes (a player fetches at least its startup buffer).
constexpr uint64_t kMinViewBytes = 64ull << 10;

// Amplitude of DiurnalFactor's weekly component, and the headroom the
// thinning envelope keeps above the diurnal peak. The swing must fit inside
// the headroom so that the acceptance probability stays below 1.
constexpr double kWeeklySwing = 0.08;
constexpr double kThinningHeadroom = 0.1;
static_assert(kWeeklySwing < kThinningHeadroom);
// DiurnalFactor's floor; it keeps the acceptance probability above 0.
constexpr double kMinDiurnalFactor = 0.05;

// Arrival thinning bounds the acceptance probability over slices of this
// length and computes it exactly only when the uniform falls between the
// bounds.
constexpr double kThinningSliceSeconds = 900.0;
// Added to each side of a slice's bounds on DiurnalShape. The rounding error
// of the computed shape is ~1e-13 over a month (sin's argument is a few
// hundred radians), so the bounds hold for every computed value.
constexpr double kThinningBoundSlack = 1e-6;

// Distinct PCG32 stream ids so that each aspect of generation has an
// independent, reproducible random sequence.
enum RngStream : uint64_t {
  kStreamCatalog = 1,
  kStreamArrivals = 2,
  kStreamVideoPick = 3,
  kStreamRange = 4,
};

void CheckConfig(const WorkloadConfig& config) {
  const ServerProfile& profile = config.profile;
  VCDN_CHECK(config.duration_seconds > 0.0);
  VCDN_CHECK(config.popularity_refresh_seconds > 0.0);
  VCDN_CHECK(profile.catalog_size > 0);
  VCDN_CHECK(profile.base_request_rate > 0.0);
  VCDN_CHECK(profile.diurnal_amplitude >= 0.0 && profile.diurnal_amplitude < 1.0);
  VCDN_CHECK(0 < profile.min_video_bytes && profile.min_video_bytes <= profile.max_video_bytes);
  VCDN_CHECK(profile.mean_view_fraction > 0.0);
}

// DiurnalFactor before its floor: server-local time-of-day, peaking at
// ~20:00 local and bottoming out at ~08:00 local, plus a mild weekly swing.
double DiurnalShape(const ServerProfile& profile, double t) {
  double local = t + profile.timezone_offset_hours * 3600.0;
  double day_phase = 2.0 * M_PI * (local / kSecondsPerDay);
  // sin peaks when local time-of-day == 20h: shift by 14h (sin peaks at
  // phase pi/2, i.e. 6h after the shifted origin).
  double daily = std::sin(day_phase - 2.0 * M_PI * 14.0 / 24.0);
  double weekly = kWeeklySwing * std::sin(2.0 * M_PI * local / kSecondsPerWeek);
  return 1.0 + profile.diurnal_amplitude * daily + weekly;
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config) : config_(std::move(config)) {
  CheckConfig(config_);
}

WindowedWorkload::WindowedWorkload(WorkloadConfig config)
    : config_(std::move(config)),
      arrival_rng_(config_.seed, kStreamArrivals),
      pick_rng_(config_.seed, kStreamVideoPick),
      range_rng_(config_.seed, kStreamRange) {
  CheckConfig(config_);

  const ServerProfile& profile = config_.profile;
  util::Pcg32 catalog_rng(config_.seed, kStreamCatalog);
  lambda_max_ = profile.base_request_rate * (1.0 + profile.diurnal_amplitude + kThinningHeadroom);

  auto make_video = [&](VideoId id, double birth) {
    VideoMeta v;
    v.id = id;
    v.birth_time = birth;
    double size = util::SampleLogNormal(catalog_rng, profile.size_lognormal_mu,
                                        profile.size_lognormal_sigma);
    size = std::clamp(size, static_cast<double>(profile.min_video_bytes),
                      static_cast<double>(profile.max_video_bytes));
    v.size_bytes = static_cast<uint64_t>(size);
    v.base_weight = util::SamplePareto(catalog_rng, 1.0, profile.popularity_shape);
    if (catalog_rng.NextBool(profile.evergreen_fraction)) {
      v.video_class = VideoClass::kEvergreen;
      v.decay_tau = 0.0;
    } else {
      v.video_class = VideoClass::kTransient;
      // Per-video decay constant around the profile mean (at least 12 hours).
      double tau = util::SampleExponential(catalog_rng, profile.transient_tau_days) + 0.5;
      v.decay_tau = tau * kSecondsPerDay;
    }
    return v;
  };

  // Pre-existing catalog: births spread over the history window so transient
  // entries are at various stages of decay at trace start.
  catalog_.videos.reserve(profile.catalog_size + 16);
  for (size_t i = 0; i < profile.catalog_size; ++i) {
    double birth = -kCatalogHistorySeconds * catalog_rng.NextDouble();
    catalog_.videos.push_back(make_video(static_cast<VideoId>(i), birth));
  }

  // Catalog churn: Poisson new-video uploads throughout the trace.
  double upload_rate = profile.new_videos_per_day / kSecondsPerDay;
  if (upload_rate > 0.0) {
    double t = util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    while (t < config_.duration_seconds) {
      catalog_.videos.push_back(make_video(static_cast<VideoId>(catalog_.videos.size()), t));
      t += util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    }
  }
  // live_ and the sampling table index the catalog with 32 bits.
  VCDN_CHECK(catalog_.videos.size() <= std::numeric_limits<uint32_t>::max());
}

bool WindowedWorkload::NextWindow(std::vector<Request>* out) {
  if (window_start_ >= config_.duration_seconds) {
    return false;
  }
  const ServerProfile& profile = config_.profile;
  double window_end =
      std::min(window_start_ + config_.popularity_refresh_seconds, config_.duration_seconds);
  RefreshActive(0.5 * (window_start_ + window_end));
  if (active_.empty()) {
    window_start_ += config_.popularity_refresh_seconds;
    return true;
  }

  // Each RNG stream is drawn in one pass, in the order one loop interleaving
  // all three would draw it: arrival times, then a pick per accepted arrival,
  // then a byte range per request.
  DrawArrivals(window_end);
  picks_.resize(arrivals_.size());
  table_.SampleMany(pick_rng_, picks_.data(), picks_.size());

  // At most one request per arrival: size `out` once, then trim.
  const size_t first = out->size();
  out->resize(first + arrivals_.size());
  Request* next = out->data() + first;
  for (size_t i = 0; i < arrivals_.size(); ++i) {
    const VideoMeta& video = catalog_.videos[active_[picks_[i]]];
    const double t = arrivals_[i];
    if (video.birth_time > t) {
      // Born later in this sampling window; it cannot be requested yet.
      continue;
    }

    // Intra-file pattern: most views start at the head of the file; others
    // seek into the early part (quadratic skew toward the beginning). View
    // length is an exponential fraction of the file, truncated at EOF.
    uint64_t size = video.size_bytes;
    uint64_t start = 0;
    if (!range_rng_.NextBool(profile.start_at_zero_probability)) {
      double u = range_rng_.NextDouble();
      double start_fraction = 0.75 * u * u;
      start = static_cast<uint64_t>(start_fraction * static_cast<double>(size - 1));
    }
    double view_fraction = util::SampleExponential(range_rng_, profile.mean_view_fraction);
    auto view_bytes = static_cast<uint64_t>(view_fraction * static_cast<double>(size));
    view_bytes = std::max(view_bytes, kMinViewBytes);
    uint64_t end = start + view_bytes - 1;
    end = std::min(end, size - 1);

    next->arrival_time = t;
    next->video = video.id;
    next->byte_begin = start;
    next->byte_end = end;
    ++next;
  }
  out->resize(static_cast<size_t>(next - out->data()));

  window_start_ += config_.popularity_refresh_seconds;
  return true;
}

void WindowedWorkload::RefreshActive(double window_mid) {
  const std::vector<VideoMeta>& videos = catalog_.videos;
  // Pre-existing videos are born at or before 0 < window_mid and uploads
  // follow in birth order, so the born videos are a prefix of the catalog.
  while (next_birth_ < videos.size() && videos[next_birth_].birth_time <= window_mid) {
    live_.push_back(static_cast<uint32_t>(next_birth_++));
  }

  active_.clear();
  active_weights_.clear();
  size_t kept = 0;
  for (const uint32_t index : live_) {
    const VideoMeta& v = videos[index];
    const double w = WorkloadGenerator::VideoWeightAt(v, window_mid, config_);
    const double weight_floor = config_.weight_floor_fraction * v.base_weight;
    if (w > weight_floor && w > 0.0) {
      active_.push_back(index);
      active_weights_.push_back(w);
    }
    // Past its ramp a transient's weight only decays. Below half the floor
    // -- a margin far above exp's rounding error -- it never passes the
    // floor again.
    if (v.video_class == VideoClass::kTransient &&
        window_mid - v.birth_time >= config_.new_video_ramp_seconds && w < 0.5 * weight_floor) {
      continue;
    }
    live_[kept++] = index;
  }
  live_.resize(kept);
  if (!active_.empty()) {
    table_.Rebuild(active_weights_);
  }
}

void WindowedWorkload::DrawArrivals(double window_end) {
  const ServerProfile& profile = config_.profile;
  arrivals_.clear();
  // Non-homogeneous Poisson process sampled by thinning against the maximum
  // rate.
  double t = window_start_;
  for (;;) {
    t += util::SampleExponential(arrival_rng_, 1.0 / lambda_max_);
    if (t >= window_end) {
      break;
    }
    // Arrival times never decrease, across windows too, so t lies in the
    // current slice until it reaches the slice's end.
    if (t >= slice_end_) {
      StartSlice(t);
    }
    // The acceptance probability lies in (0, 1), so NextBool(accept) would
    // draw exactly this uniform and accept when it is below accept.
    const double u = arrival_rng_.NextDouble();
    bool accepted = u < accept_lo_;
    if (!accepted && u < accept_hi_) {
      accepted =
          u < profile.base_request_rate * WorkloadGenerator::DiurnalFactor(profile, t) / lambda_max_;
    }
    if (accepted) {
      arrivals_.push_back(t);
    }
  }
}

void WindowedWorkload::StartSlice(double t) {
  const ServerProfile& profile = config_.profile;
  const double end = t + kThinningSliceSeconds;
  // Between two points, a function whose second derivative is at most M in
  // magnitude strays from its chord by at most M * width^2 / 8.
  const double day_rate = 2.0 * M_PI / kSecondsPerDay;
  const double week_rate = 2.0 * M_PI / kSecondsPerWeek;
  const double curvature =
      profile.diurnal_amplitude * day_rate * day_rate + kWeeklySwing * week_rate * week_rate;
  const double slack =
      curvature * kThinningSliceSeconds * kThinningSliceSeconds / 8.0 + kThinningBoundSlack;
  const double a = DiurnalShape(profile, t);
  const double b = DiurnalShape(profile, end);
  const double lo = std::max(std::min(a, b) - slack, kMinDiurnalFactor);
  const double hi = std::max(std::max(a, b) + slack, kMinDiurnalFactor);
  // The exact acceptance rounds the same monotone operations on a factor in
  // [lo, hi], so it lies in [accept_lo_, accept_hi_].
  accept_lo_ = profile.base_request_rate * lo / lambda_max_;
  accept_hi_ = profile.base_request_rate * hi / lambda_max_;
  VCDN_CHECK(accept_lo_ > 0.0 && accept_hi_ < 1.0);
  slice_end_ = end;
}

double WorkloadGenerator::DiurnalFactor(const ServerProfile& profile, double t) {
  return std::max(DiurnalShape(profile, t), kMinDiurnalFactor);
}

double WorkloadGenerator::VideoWeightAt(const VideoMeta& video, double t,
                                        const WorkloadConfig& config) {
  if (t < video.birth_time) {
    return 0.0;
  }
  double age = t - video.birth_time;
  double ramp = 1.0;
  if (config.new_video_ramp_seconds > 0.0 && age < config.new_video_ramp_seconds) {
    ramp = age / config.new_video_ramp_seconds;
  }
  double decay = 1.0;
  if (video.video_class == VideoClass::kTransient) {
    VCDN_DCHECK(video.decay_tau > 0.0);
    decay = std::exp(-age / video.decay_tau);
  }
  return video.base_weight * ramp * decay;
}

GeneratedWorkload WorkloadGenerator::Generate() {
  WindowedWorkload windows(config_);

  GeneratedWorkload out;
  Trace& trace = out.trace;
  trace.duration = config_.duration_seconds;
  trace.requests.reserve(
      static_cast<size_t>(config_.profile.base_request_rate * config_.duration_seconds * 1.05) +
      16);
  while (windows.NextWindow(&trace.requests)) {
  }
  out.catalog = windows.TakeCatalog();

  VCDN_CHECK(trace.IsWellFormed());

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    registry.GetCounter("workload.generated_requests_total")
        .Increment(trace.requests.size());
    registry.GetGauge("workload.catalog_videos")
        .Set(static_cast<double>(out.catalog.videos.size()));
    registry.GetGauge("workload.duration_seconds").Set(trace.duration);
    registry.GetGauge("workload.arrival_rate_per_sec")
        .Set(trace.duration > 0.0
                 ? static_cast<double>(trace.requests.size()) / trace.duration
                 : 0.0);
  }
  return out;
}

std::vector<GeneratedWorkload> GenerateWorkloads(const std::vector<WorkloadConfig>& configs,
                                                 const ParallelGenerateOptions& options) {
  std::vector<GeneratedWorkload> out(configs.size());
  if (configs.empty()) {
    return out;
  }

  std::optional<exec::ThreadPool> pool;
  if (options.threads != 1) {
    pool.emplace(exec::ThreadPoolOptions{options.threads, nullptr, nullptr});
  }

  // Buffer per-config metrics locally so concurrent shards never write the
  // shared registry; merging in config order after the join makes the
  // registry contents identical to a sequential run.
  std::vector<std::optional<obs::MetricsRegistry>> local_metrics(configs.size());
  auto shard_config = [&](size_t i) {
    WorkloadConfig config = configs[i];
    if (config.metrics != nullptr) {
      local_metrics[i].emplace();
      config.metrics = &*local_metrics[i];
    }
    return config;
  };

  if (!pool.has_value()) {
    for (size_t i = 0; i < configs.size(); ++i) {
      out[i] = WorkloadGenerator(shard_config(i)).Generate();
    }
  } else {
    // Expected request counts, before diurnal modulation.
    std::vector<double> sizes;
    sizes.reserve(configs.size());
    for (const WorkloadConfig& config : configs) {
      sizes.push_back(config.profile.base_request_rate * config.duration_seconds);
    }
    exec::RunLargestFirst(
        *pool, sizes, [&](size_t i) { out[i] = WorkloadGenerator(shard_config(i)).Generate(); },
        [](size_t) { return "workload.generate"; });
  }

  for (size_t i = 0; i < configs.size(); ++i) {
    if (local_metrics[i].has_value()) {
      configs[i].metrics->MergeFrom(*local_metrics[i]);
    }
  }
  return out;
}

}  // namespace vcdn::trace
