// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/fault/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "src/obs/json_util.h"
#include "src/util/rng.h"

namespace vcdn::fault {

namespace {

bool IsOutage(const FaultEvent& event) {
  return event.kind == FaultKind::kEdgeOutage || event.kind == FaultKind::kParentOutage;
}

bool OutageMatchesTarget(const FaultEvent& event, size_t target) {
  if (target == kParentTarget) {
    return event.kind == FaultKind::kParentOutage;
  }
  return event.kind == FaultKind::kEdgeOutage && event.target == target;
}

bool StatefulMatchesTarget(const FaultEvent& event, size_t target) {
  return (event.kind == FaultKind::kDiskDegrade || event.kind == FaultKind::kColdRestart) &&
         event.target == target;
}

bool ActiveAt(const FaultEvent& event, double t) {
  return t >= event.start && t < event.end;
}

}  // namespace

util::Status FaultSchedule::Validate() const {
  for (size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    const std::string where = "fault event " + std::to_string(i) + ": ";
    if (!std::isfinite(e.start) || !std::isfinite(e.end) || e.start < 0.0) {
      return util::InvalidArgumentError(where + "non-finite or negative window");
    }
    if (e.kind != FaultKind::kColdRestart && e.end < e.start) {
      return util::InvalidArgumentError(where + "end < start");
    }
    if (e.kind == FaultKind::kDiskDegrade &&
        (!(e.capacity_factor > 0.0) || e.capacity_factor > 1.0)) {
      return util::InvalidArgumentError(where + "capacity_factor must be in (0, 1]");
    }
    if (e.kind == FaultKind::kOriginInflation && !(e.cost_factor >= 1.0)) {
      return util::InvalidArgumentError(where + "cost_factor must be >= 1");
    }
  }
  return util::OkStatus();
}

double FaultSchedule::OriginCostFactor(double t) const {
  double factor = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kOriginInflation && ActiveAt(e, t)) {
      factor *= e.cost_factor;
    }
  }
  return factor;
}

// Each random disk-degrade window lasts this fraction of the duration and
// leaves this fraction of the disk.
constexpr double kDegradeFraction = 0.1;
constexpr double kDegradeCapacityFactor = 0.5;

FaultSchedule MakeRandomFaultSchedule(uint64_t seed, const RandomFaultOptions& options) {
  VCDN_CHECK(options.duration > 0.0);
  FaultSchedule schedule;
  auto windows = [&](util::Pcg32& rng, size_t count, double total_fraction, auto emit) {
    if (count == 0 || total_fraction <= 0.0) {
      return;
    }
    double each = options.duration * total_fraction / static_cast<double>(count);
    for (size_t k = 0; k < count; ++k) {
      double start = rng.NextDouble() * std::max(0.0, options.duration - each);
      emit(start, start + each);
    }
  };
  for (size_t edge = 0; edge < options.num_edges; ++edge) {
    util::Pcg32 rng(util::SplitSeed(seed, edge), /*stream=*/0xFAu);
    windows(rng, options.outages_per_edge, options.outage_fraction, [&](double s, double e) {
      schedule.Add({FaultKind::kEdgeOutage, s, e, edge, 1.0, 1.0});
    });
    windows(rng, options.degrades_per_edge,
            kDegradeFraction * static_cast<double>(options.degrades_per_edge),
            [&](double s, double e) {
              schedule.Add({FaultKind::kDiskDegrade, s, e, edge, kDegradeCapacityFactor, 1.0});
            });
    for (size_t k = 0; k < options.restarts_per_edge; ++k) {
      double at = rng.NextDouble() * options.duration;
      schedule.Add({FaultKind::kColdRestart, at, at, edge, 1.0, 1.0});
    }
  }
  {
    util::Pcg32 rng(util::SplitSeed(seed, kParentTarget), /*stream=*/0xFAu);
    windows(rng, options.parent_outages, options.parent_outage_fraction, [&](double s, double e) {
      schedule.Add({FaultKind::kParentOutage, s, e, kParentTarget, 1.0, 1.0});
    });
  }
  VCDN_CHECK(schedule.Validate().ok());
  return schedule;
}

std::string FaultScheduleToJson(const FaultSchedule& schedule) {
  static constexpr const char* kKindNames[] = {"edge_outage", "parent_outage", "disk_degrade",
                                               "cold_restart", "origin_inflation"};
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const FaultEvent& e : schedule.events()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"kind\":\"" << kKindNames[static_cast<size_t>(e.kind)] << "\",\"start\":";
    obs::WriteJsonDouble(out, e.start);
    out << ",\"end\":";
    obs::WriteJsonDouble(out, e.end);
    out << ",\"target\":";
    if (e.target == kParentTarget) {
      out << "\"parent\"";
    } else {
      out << e.target;
    }
    out << ",\"capacity_factor\":";
    obs::WriteJsonDouble(out, e.capacity_factor);
    out << ",\"cost_factor\":";
    obs::WriteJsonDouble(out, e.cost_factor);
    out << "}";
  }
  out << "]";
  return out.str();
}

FaultDriver::FaultDriver(const FaultSchedule& schedule, size_t target,
                         core::CacheAlgorithm* cache, obs::MetricsRegistry* metrics,
                         obs::TraceEventSink* sink)
    : events_(schedule.events()),
      cache_(cache),
      base_capacity_(cache->config().disk_capacity_chunks),
      sink_(sink) {
  for (size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    if (IsOutage(e) && OutageMatchesTarget(e, target) && e.end > e.start) {
      outages_.emplace_back(e.start, e.end);
    }
    if (!StatefulMatchesTarget(e, target)) {
      continue;
    }
    if (e.kind == FaultKind::kColdRestart) {
      boundaries_.push_back({e.start, i, Boundary::Op::kRestart});
    } else {
      boundaries_.push_back({e.start, i, Boundary::Op::kDegradeStart});
      boundaries_.push_back({e.end, i, Boundary::Op::kDegradeEnd});
    }
  }
  std::sort(boundaries_.begin(), boundaries_.end(), [](const Boundary& a, const Boundary& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.event_index != b.event_index) {
      return a.event_index < b.event_index;
    }
    // A zero-length degrade window restores immediately after it applies.
    return a.op < b.op;
  });
  std::sort(outages_.begin(), outages_.end());
  // Merge overlapping/adjacent outage windows so the cursor is monotone.
  size_t merged = 0;
  for (const auto& window : outages_) {
    if (merged > 0 && window.first <= outages_[merged - 1].second) {
      outages_[merged - 1].second = std::max(outages_[merged - 1].second, window.second);
    } else {
      outages_[merged++] = window;
    }
  }
  outages_.resize(merged);

  if (metrics != nullptr) {
    unavailable_requests_total_ = metrics->GetCounter("fault.unavailable_requests_total");
    unavailable_bytes_total_ = metrics->GetCounter("fault.unavailable_bytes_total");
    cold_restarts_total_ = metrics->GetCounter("fault.cold_restarts_total");
    dropped_chunks_total_ = metrics->GetCounter("fault.dropped_chunks_total");
    resize_events_total_ = metrics->GetCounter("fault.resize_events_total");
    resize_evicted_chunks_total_ = metrics->GetCounter("fault.resize_evicted_chunks_total");
    capacity_gauge_ = metrics->GetGauge("fault.capacity_chunks");
    capacity_gauge_.Set(static_cast<double>(base_capacity_));
  }
}

void FaultDriver::ApplyCapacity() {
  // Recompute the factor as a product over active events in index order:
  // exact and order-independent, so a restore lands back on the base
  // capacity bit-for-bit (incremental multiply/divide would drift).
  double factor = 1.0;
  for (size_t index : active_degrades_) {
    factor *= events_[index].capacity_factor;
  }
  auto new_capacity = static_cast<uint64_t>(
      std::max<int64_t>(1, std::llround(static_cast<double>(base_capacity_) * factor)));
  if (new_capacity == cache_->config().disk_capacity_chunks) {
    return;
  }
  uint64_t evicted = cache_->Resize(new_capacity);
  resize_events_total_.Increment();
  resize_evicted_chunks_total_.Increment(evicted);
  capacity_gauge_.Set(static_cast<double>(new_capacity));
  if (sink_ != nullptr) {
    sink_->AddInstant("fault.resize", "fault");
  }
}

void FaultDriver::Advance(double now) {
  while (next_boundary_ < boundaries_.size() && boundaries_[next_boundary_].time <= now) {
    const Boundary& boundary = boundaries_[next_boundary_++];
    switch (boundary.op) {
      case Boundary::Op::kDegradeStart: {
        auto it = std::lower_bound(active_degrades_.begin(), active_degrades_.end(),
                                   boundary.event_index);
        active_degrades_.insert(it, boundary.event_index);
        ApplyCapacity();
        break;
      }
      case Boundary::Op::kDegradeEnd: {
        auto it = std::lower_bound(active_degrades_.begin(), active_degrades_.end(),
                                   boundary.event_index);
        VCDN_DCHECK(it != active_degrades_.end() && *it == boundary.event_index);
        active_degrades_.erase(it);
        ApplyCapacity();
        break;
      }
      case Boundary::Op::kRestart: {
        uint64_t dropped = cache_->DropContents();
        cold_restarts_total_.Increment();
        dropped_chunks_total_.Increment(dropped);
        if (sink_ != nullptr) {
          sink_->AddInstant("fault.cold_restart", "fault");
        }
        break;
      }
    }
  }
}

bool FaultDriver::InOutage(double now) {
  while (outage_cursor_ < outages_.size() && outages_[outage_cursor_].second <= now) {
    ++outage_cursor_;
  }
  return outage_cursor_ < outages_.size() && now >= outages_[outage_cursor_].first;
}

void FaultDriver::RecordUnavailable(const core::RequestOutcome& outcome) {
  unavailable_requests_total_.Increment();
  unavailable_bytes_total_.Increment(outcome.requested_bytes);
}

}  // namespace vcdn::fault
