// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Deterministic fault injection for the replay and hierarchy layers.
//
// The paper frames CDN caches as "strong lines of defense" in front of the
// origin (Sec. 2); this module exercises the defense lines under failure,
// the degraded regimes the related adaptive-replication literature evaluates
// (server loss, capacity shrink, demand surges). A FaultSchedule is a set of
// time-windowed events -- edge outage, parent outage, disk-capacity
// degradation, cold restart, origin cost inflation -- driven purely by the
// replay clock, so a given (schedule, trace) pair produces bit-identical
// results on any thread count: the schedule is immutable and shared, and all
// mutable state lives in a per-replay FaultDriver.
//
// Failover semantics (see docs/FAULTS.md):
//   * edge outage   -- the edge serves nothing: in its replay, requests in
//                      the window become Decision::kUnavailable and are
//                      origin-served directly (at an outage penalty in
//                      sim::RunHierarchy's origin cost);
//   * parent outage -- the same in the parent tier's replay: edge
//                      redirects arriving in the window are kUnavailable
//                      and fall through to the origin without entering the
//                      parent cache;
//   * disk degrade  -- the target cache shrinks to capacity_factor of its
//                      base capacity via CacheAlgorithm::Resize (and grows
//                      back when the window closes);
//   * cold restart  -- the target cache drops its disk contents at `start`
//                      (capacity and popularity tracking survive);
//   * origin inflation -- origin-served bytes cost cost_factor times more
//                      during the window (demand surge / expensive uplink).

#ifndef VCDN_SRC_FAULT_FAULT_H_
#define VCDN_SRC_FAULT_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"
#include "src/util/status.h"

namespace vcdn::fault {

// Target index addressing the parent tier instead of an edge/shard.
inline constexpr size_t kParentTarget = static_cast<size_t>(-1);

enum class FaultKind {
  kEdgeOutage,       // target edge is down over [start, end)
  kParentOutage,     // the (single) parent tier is down over [start, end)
  kDiskDegrade,      // target's disk shrinks to capacity_factor of base size
  kColdRestart,      // target drops its cache contents at `start`
  kOriginInflation,  // origin bytes cost cost_factor x over [start, end)
};

struct FaultEvent {
  FaultKind kind = FaultKind::kEdgeOutage;
  // Active over the half-open window [start, end). kColdRestart is an
  // instant: it fires at `start` and `end` is ignored (set it == start).
  double start = 0.0;
  double end = 0.0;
  // Edge/shard index, or kParentTarget for the parent tier. Ignored by
  // kParentOutage (always the parent) and kOriginInflation (always global).
  size_t target = 0;
  double capacity_factor = 1.0;  // kDiskDegrade: in (0, 1]
  double cost_factor = 1.0;      // kOriginInflation: >= 1
};

// An immutable, validated collection of fault events. Replay-time
// application goes through FaultDriver, which precomputes sorted boundaries
// once.
class FaultSchedule {
 public:
  void Add(const FaultEvent& event) { events_.push_back(event); }

  // Checks every event for a sane window and factors. Call once after
  // building the schedule; drivers assume a valid schedule.
  util::Status Validate() const;

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Product of the cost factors of active kOriginInflation events at t
  // (O(events); the hierarchy prices origin bytes with it).
  double OriginCostFactor(double t) const;

 private:
  std::vector<FaultEvent> events_;
};

// Seeded random schedule builder for benches and determinism tests: per-edge
// outages, cold restarts and disk-degrade windows plus parent outages, all
// drawn from SplitSeed-derived PCG32 streams so the schedule for a given
// (seed, options) pair is identical everywhere.
struct RandomFaultOptions {
  double duration = 0.0;  // schedule horizon; must be > 0
  size_t num_edges = 1;
  size_t outages_per_edge = 1;
  double outage_fraction = 0.05;  // total outage time per edge, of duration
  size_t restarts_per_edge = 0;
  size_t degrades_per_edge = 0;  // each 10% of duration, at half capacity
  size_t parent_outages = 0;
  double parent_outage_fraction = 0.02;  // total parent downtime, of duration
};

FaultSchedule MakeRandomFaultSchedule(uint64_t seed, const RandomFaultOptions& options);

// Renders the schedule as a JSON array of event objects (deterministic:
// events in insertion order, fixed field order). This is the pre-rendered
// form obs::PostMortemContext embeds in flight-recorder dumps -- obs sits
// below fault, so it takes the schedule as a string rather than a type.
std::string FaultScheduleToJson(const FaultSchedule& schedule);

// Applies one schedule to one replay target: resizes / drops the cache at
// event boundaries and answers outage membership for the replay clock.
// Requests must arrive in non-decreasing time order (the replay contract).
// Owns no shared state, so concurrent replays may each hold a driver over
// the same schedule.
class FaultDriver {
 public:
  // `cache` must outlive the driver; metrics/sink are optional ("fault.*"
  // instruments and "fault" trace instants, no-ops when null).
  FaultDriver(const FaultSchedule& schedule, size_t target, core::CacheAlgorithm* cache,
              obs::MetricsRegistry* metrics = nullptr, obs::TraceEventSink* sink = nullptr);

  // Applies every degrade/restore/restart boundary at or before `now`.
  void Advance(double now);

  // Time of the earliest schedule boundary not yet applied, or +infinity
  // when none remain. Lets a batching replay keep accumulating requests
  // while an Advance would be a no-op, and drain the batch exactly when a
  // boundary is about to mutate the cache.
  double NextBoundaryTime() const {
    return next_boundary_ < boundaries_.size() ? boundaries_[next_boundary_].time
                                               : std::numeric_limits<double>::infinity();
  }

  // True if `now` falls inside an outage window of this driver's target
  // (edge outages for edge targets, parent outages for kParentTarget). The
  // one test of outage membership: sim::Replay asks it for every request.
  bool InOutage(double now);

  // True while at least one disk-degrade window is active on this target --
  // the "degraded but serving" state the flight recorder stamps into its
  // per-request fault byte (see docs/OBSERVABILITY.md).
  bool Degraded() const { return !active_degrades_.empty(); }

  // Counts one request that an outage made unavailable into the
  // fault.unavailable_* counters. The caller synthesizes the
  // Decision::kUnavailable outcome and accounts it (sim::ReplayTotals).
  void RecordUnavailable(const core::RequestOutcome& outcome);

 private:
  struct Boundary {
    double time = 0.0;
    size_t event_index = 0;  // into schedule events; tie-break for determinism
    enum class Op { kDegradeStart, kDegradeEnd, kRestart } op = Op::kRestart;
  };

  void ApplyCapacity();

  const std::vector<FaultEvent>& events_;
  core::CacheAlgorithm* cache_;
  const uint64_t base_capacity_;

  std::vector<Boundary> boundaries_;  // sorted by (time, event_index)
  size_t next_boundary_ = 0;
  // Indices of active kDiskDegrade events, kept sorted so the factor product
  // is recomputed in a fixed order (exact restores, order-independent).
  std::vector<size_t> active_degrades_;

  // Merged outage windows for this target, sorted; cursor for InOutage.
  std::vector<std::pair<double, double>> outages_;
  size_t outage_cursor_ = 0;

  // Observability (no-ops when detached).
  obs::TraceEventSink* sink_;
  obs::Counter unavailable_requests_total_;
  obs::Counter unavailable_bytes_total_;
  obs::Counter cold_restarts_total_;
  obs::Counter dropped_chunks_total_;
  obs::Counter resize_events_total_;
  obs::Counter resize_evicted_chunks_total_;
  obs::Gauge capacity_gauge_;
};

}  // namespace vcdn::fault

#endif  // VCDN_SRC_FAULT_FAULT_H_
