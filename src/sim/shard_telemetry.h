// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Shard-local telemetry for a replay split into parallel shards (RunFleet's
// servers, RunHierarchy's edges). Shards never share a sink while they run:
// each gets its own registry, series recorder, trace sink and flight ring
// for whichever of those the caller's base ReplayOptions attaches, and
// MergeInto folds them back into the caller's sinks in shard order after
// the join. The fixed order is what makes the merged telemetry identical at
// every thread count (docs/PARALLELISM.md). Internal to src/sim.

#ifndef VCDN_SRC_SIM_SHARD_TELEMETRY_H_
#define VCDN_SRC_SIM_SHARD_TELEMETRY_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_event.h"
#include "src/sim/replay.h"

namespace vcdn::sim {

class ShardTelemetry {
 public:
  // One set of local sinks per shard, mirroring what `base` attaches (a
  // series needs base.metrics). `base` must outlive this object.
  ShardTelemetry(const ReplayOptions& base, size_t num_shards);

  ShardTelemetry(const ShardTelemetry&) = delete;
  ShardTelemetry& operator=(const ShardTelemetry&) = delete;

  // A copy of `base` pointed at shard `shard`'s local sinks. Each shard's
  // options may be used by one thread at a time.
  ReplayOptions ShardOptions(size_t shard);

  // Folds every shard into base's sinks, in shard order: registries and
  // series merge, events land on trace lane obs::kFleetTidBase + shard,
  // ring records are re-recorded (the merged ring holds the tail of the
  // concatenated shard streams) and captures are appended. Call once, after
  // every shard has finished.
  void MergeInto();

 private:
  struct Shard {
    std::optional<obs::MetricsRegistry> metrics;
    // Over `metrics`, so a Shard never moves once its sinks exist.
    std::optional<obs::TimeSeriesRecorder> series;
    std::optional<obs::TraceEventSink> sink;
    std::optional<obs::FlightRecorder> flight;
    // Deferred fault-boundary dumps; shards never touch a shared file.
    std::vector<obs::FlightCapture> captures;
  };

  const ReplayOptions& base_;
  std::vector<Shard> shards_;
};

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_SHARD_TELEMETRY_H_
