// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/server_profile.h"

#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace vcdn::trace {

namespace {

ServerProfile ScaledBase(double scale) {
  VCDN_CHECK(scale > 0.0 && scale <= kMaxProfileScale);
  ServerProfile p;
  p.base_request_rate *= scale;
  p.catalog_size = static_cast<size_t>(std::lround(static_cast<double>(p.catalog_size) * scale));
  p.new_videos_per_day *= scale;
  return p;
}

}  // namespace

ServerProfile EuropeProfile(double scale) {
  ServerProfile p = ScaledBase(scale);
  p.name = "Europe";
  p.timezone_offset_hours = 1.0;
  return p;
}

std::vector<ServerProfile> PaperServerProfiles(double scale) {
  std::vector<ServerProfile> out;

  {
    // Africa: lighter volume, moderately narrow catalog.
    ServerProfile p = ScaledBase(scale);
    p.name = "Africa";
    p.timezone_offset_hours = 2.0;
    p.base_request_rate *= 0.55;
    p.catalog_size = static_cast<size_t>(static_cast<double>(p.catalog_size) * 0.65);
    p.new_videos_per_day *= 0.6;
    out.push_back(p);
  }
  {
    // Asia: "more limited requests" (Sec. 9) -> narrow, highly skewed demand;
    // the highest efficiencies in Fig. 7.
    ServerProfile p = ScaledBase(scale);
    p.name = "Asia";
    p.timezone_offset_hours = 8.0;
    p.base_request_rate *= 0.8;
    p.catalog_size = static_cast<size_t>(static_cast<double>(p.catalog_size) * 0.45);
    p.popularity_shape = 0.85;  // heavy weight tail: demand concentrated on the head
    p.new_videos_per_day *= 0.5;
    out.push_back(p);
  }
  {
    // Australia: small volume, typical diversity.
    ServerProfile p = ScaledBase(scale);
    p.name = "Australia";
    p.timezone_offset_hours = 10.0;
    p.base_request_rate *= 0.6;
    p.catalog_size = static_cast<size_t>(static_cast<double>(p.catalog_size) * 0.7);
    out.push_back(p);
  }
  out.push_back(EuropeProfile(scale));
  {
    // North America: busy, broad catalog.
    ServerProfile p = ScaledBase(scale);
    p.name = "NorthAmerica";
    p.timezone_offset_hours = -5.0;
    p.base_request_rate *= 1.35;
    p.catalog_size = static_cast<size_t>(static_cast<double>(p.catalog_size) * 1.3);
    p.new_videos_per_day *= 1.3;
    out.push_back(p);
  }
  {
    // South America: busiest and most diverse relative to the same disk; the
    // lowest efficiencies and widest xLRU gap in Fig. 7.
    ServerProfile p = ScaledBase(scale);
    p.name = "SouthAmerica";
    p.timezone_offset_hours = -3.0;
    p.base_request_rate *= 1.7;
    p.catalog_size = static_cast<size_t>(static_cast<double>(p.catalog_size) * 1.6);
    p.popularity_shape = 1.3;  // flatter popularity -> more diverse requests
    p.new_videos_per_day *= 1.6;
    out.push_back(p);
  }
  return out;
}

std::vector<std::string> PaperServerNames() {
  std::vector<std::string> names;
  for (ServerProfile& profile : PaperServerProfiles()) {
    names.push_back(std::move(profile.name));
  }
  return names;
}

ServerProfile PaperServerProfile(std::string_view name, double scale) {
  for (ServerProfile& profile : PaperServerProfiles(scale)) {
    if (profile.name == name) {
      return profile;
    }
  }
  VCDN_CHECK_MSG(false, "unknown paper server");
  return {};
}

}  // namespace vcdn::trace
