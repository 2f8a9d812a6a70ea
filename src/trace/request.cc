// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/request.h"

#include <cmath>
#include <unordered_set>

namespace vcdn::trace {

size_t Trace::DistinctVideos() const {
  std::unordered_set<VideoId> seen;
  seen.reserve(requests.size() / 4 + 1);
  for (const Request& r : requests) {
    seen.insert(r.video);
  }
  return seen.size();
}

bool Trace::IsWellFormed() const {
  // NaN would slip past every ordering comparison below (all comparisons
  // with NaN are false), so reject non-finite times explicitly.
  if (!std::isfinite(duration) || duration < 0.0) {
    return false;
  }
  double prev = 0.0;
  for (const Request& r : requests) {
    if (!std::isfinite(r.arrival_time)) {
      return false;
    }
    if (r.arrival_time < prev || r.arrival_time < 0.0) {
      return false;
    }
    if (r.byte_end < r.byte_begin || r.byte_end >= kMaxVideoBytes) {
      return false;
    }
    prev = r.arrival_time;
  }
  return requests.empty() || requests.back().arrival_time <= duration;
}

}  // namespace vcdn::trace
