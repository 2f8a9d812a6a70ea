// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "tests/oracles/reference_workload.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/distributions.h"

namespace vcdn::trace {

namespace {

constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;
constexpr double kCatalogHistorySeconds = 45.0 * kSecondsPerDay;
constexpr uint64_t kMinViewBytes = 64ull << 10;

enum RngStream : uint64_t {
  kStreamCatalog = 1,
  kStreamArrivals = 2,
  kStreamVideoPick = 3,
  kStreamRange = 4,
};

// Walker alias table, Vose's construction on fresh allocations.
class ReferenceAliasTable {
 public:
  explicit ReferenceAliasTable(const std::vector<double>& weights) {
    size_t n = weights.size();
    probability_.resize(n);
    alias_.resize(n);
    double total = 0.0;
    for (double w : weights) {
      total += w;
    }
    std::vector<double> scaled(n);
    std::vector<uint32_t> small;
    std::vector<uint32_t> large;
    small.reserve(n);
    large.reserve(n);
    double scale = static_cast<double>(n) / total;
    for (size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * scale;
      if (scaled[i] < 1.0) {
        small.push_back(static_cast<uint32_t>(i));
      } else {
        large.push_back(static_cast<uint32_t>(i));
      }
    }
    while (!small.empty() && !large.empty()) {
      uint32_t s = small.back();
      small.pop_back();
      uint32_t l = large.back();
      large.pop_back();
      probability_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        small.push_back(l);
      } else {
        large.push_back(l);
      }
    }
    for (uint32_t l : large) {
      probability_[l] = 1.0;
      alias_[l] = l;
    }
    for (uint32_t s : small) {
      probability_[s] = 1.0;
      alias_[s] = s;
    }
  }

  size_t Sample(util::Pcg32& rng) const {
    auto column = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(probability_.size())));
    return rng.NextDouble() < probability_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> probability_;
  std::vector<uint32_t> alias_;
};

double DiurnalFactor(const ServerProfile& profile, double t) {
  double local = t + profile.timezone_offset_hours * 3600.0;
  double day_phase = 2.0 * M_PI * (local / kSecondsPerDay);
  double daily = std::sin(day_phase - 2.0 * M_PI * 14.0 / 24.0);
  double weekly = 0.08 * std::sin(2.0 * M_PI * local / kSecondsPerWeek);
  double factor = 1.0 + profile.diurnal_amplitude * daily + weekly;
  return std::max(factor, 0.05);
}

double VideoWeightAt(const VideoMeta& video, double t, const WorkloadConfig& config) {
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
    decay = std::exp(-age / video.decay_tau);
  }
  return video.base_weight * ramp * decay;
}

}  // namespace

ReferenceWorkload::ReferenceWorkload(WorkloadConfig config)
    : config_(std::move(config)),
      arrival_rng_(config_.seed, kStreamArrivals),
      pick_rng_(config_.seed, kStreamVideoPick),
      range_rng_(config_.seed, kStreamRange) {
  const ServerProfile& profile = config_.profile;
  util::Pcg32 catalog_rng(config_.seed, kStreamCatalog);
  lambda_max_ = profile.base_request_rate * (1.0 + profile.diurnal_amplitude + 0.1);

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
      double tau = util::SampleExponential(catalog_rng, profile.transient_tau_days) + 0.5;
      v.decay_tau = tau * kSecondsPerDay;
    }
    return v;
  };

  for (size_t i = 0; i < profile.catalog_size; ++i) {
    double birth = -kCatalogHistorySeconds * catalog_rng.NextDouble();
    catalog_.videos.push_back(make_video(static_cast<VideoId>(i), birth));
  }
  double upload_rate = profile.new_videos_per_day / kSecondsPerDay;
  if (upload_rate > 0.0) {
    double t = util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    while (t < config_.duration_seconds) {
      catalog_.videos.push_back(make_video(static_cast<VideoId>(catalog_.videos.size()), t));
      t += util::SampleExponential(catalog_rng, 1.0 / upload_rate);
    }
  }
}

bool ReferenceWorkload::NextWindow(std::vector<Request>* out) {
  if (window_start_ >= config_.duration_seconds) {
    return false;
  }
  const ServerProfile& profile = config_.profile;
  double window_end =
      std::min(window_start_ + config_.popularity_refresh_seconds, config_.duration_seconds);
  double window_mid = 0.5 * (window_start_ + window_end);

  std::vector<VideoId> active_ids;
  std::vector<double> active_weights;
  for (const VideoMeta& v : catalog_.videos) {
    double w = VideoWeightAt(v, window_mid, config_);
    if (w > config_.weight_floor_fraction * v.base_weight && w > 0.0) {
      active_ids.push_back(v.id);
      active_weights.push_back(w);
    }
  }
  if (active_ids.empty()) {
    window_start_ += config_.popularity_refresh_seconds;
    return true;
  }
  ReferenceAliasTable table(active_weights);

  double t = window_start_;
  for (;;) {
    t += util::SampleExponential(arrival_rng_, 1.0 / lambda_max_);
    if (t >= window_end) {
      break;
    }
    double accept = profile.base_request_rate * DiurnalFactor(profile, t) / lambda_max_;
    if (!arrival_rng_.NextBool(accept)) {
      continue;
    }
    const VideoMeta& video = catalog_.videos[active_ids[table.Sample(pick_rng_)]];
    if (video.birth_time > t) {
      continue;
    }
    Request r;
    r.arrival_time = t;
    r.video = video.id;
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
    r.byte_begin = start;
    r.byte_end = end;
    out->push_back(r);
  }

  window_start_ += config_.popularity_refresh_seconds;
  return true;
}

}  // namespace vcdn::trace
