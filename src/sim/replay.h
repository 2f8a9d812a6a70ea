// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Trace replay: drives a CacheAlgorithm over a request log and produces the
// paper's metrics (Sec. 9 methodology). Optionally observable: pass a
// MetricsRegistry / TimeSeriesRecorder / TraceEventSink / FlightRecorder via
// ReplayOptions to get live instruments, per-bucket series windows,
// profiling spans and a per-request decision ring; all default to off and
// cost nothing when absent.

#ifndef VCDN_SRC_SIM_REPLAY_H_
#define VCDN_SRC_SIM_REPLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/fault/fault.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_event.h"
#include "src/sim/metrics.h"
#include "src/trace/request.h"
#include "src/trace/request_stream.h"

namespace vcdn::sim {

struct ReplayOptions {
  // Steady-state measurement starts at this fraction of the trace duration
  // (the paper averages over the second half of the month).
  double measurement_start_fraction = 0.5;
  // Time-series bucket width (Fig. 3 plots are hourly).
  double bucket_seconds = 3600.0;
  // How many consecutive requests are accumulated into one
  // CacheAlgorithm::HandleRequestBatch call (1 disables batching). Batches
  // are cut at bucket flushes, fault boundaries and outage windows, so every
  // observable -- outcomes, collector totals, series, metrics snapshots,
  // on_outcome order, fleet digests -- is bit-identical at any batch size;
  // an algorithm may override CacheAlgorithm::HandleRequestBatchImpl to
  // work across a batch, and none in the library does today.
  size_t batch_size = 16;

  // --- observability (all optional) ---
  // Attached to the cache (AttachMetrics) and to the replay's own
  // instruments ("sim.replay.*").
  obs::MetricsRegistry* metrics = nullptr;
  // Receives scoped-timer spans ("replay.prepare", "replay.loop").
  obs::TraceEventSink* trace_sink = nullptr;
  // Windowed time-series over `metrics`: EndWindow is called at every bucket
  // flush (window edges are the bucket edges, so per-shard recorders align
  // and merge exactly -- see src/obs/time_series.h). Requires `metrics`; the
  // recorder must be constructed over the same registry.
  obs::TimeSeriesRecorder* series = nullptr;
  // Per-request decision ring (see src/obs/flight_recorder.h). Recording is
  // alloc-free; steady-state allocation stays zero with this enabled.
  obs::FlightRecorder* flight = nullptr;
  // With `flight` set: a deferred post-mortem capture of the ring is
  // appended here at every fault boundary (the moments worth dissecting).
  // Captures allocate, but boundaries are rare and never steady-state.
  // Written out by the caller after any parallel shards join, so shards
  // never race on one output file.
  std::vector<obs::FlightCapture>* flight_captures = nullptr;
  // Label stamped into capture contexts ("server3", "edge0", ...).
  std::string flight_label;
  // Per-request callback, invoked after the cache handled the request and
  // the collector recorded the outcome. This is how the hierarchy captures
  // redirects for the parent tier without owning the replay loop. Costs one
  // bool test per request when unset. Also invoked for fault-injected
  // Decision::kUnavailable outcomes.
  std::function<void(const trace::Request&, const core::RequestOutcome&)> on_outcome;

  // --- fault injection (optional) ---
  // When set (and non-empty), a fault::FaultDriver applies the schedule's
  // events for `fault_target` as the replay clock passes them: requests in
  // outage windows become Decision::kUnavailable without touching the cache,
  // disk-degrade windows Resize() it, cold restarts DropContents(). The
  // schedule must outlive the replay and is shared read-only, so concurrent
  // shard replays stay deterministic. See docs/FAULTS.md.
  const fault::FaultSchedule* faults = nullptr;
  // Which schedule target this replay is: an edge/shard index, or
  // fault::kParentTarget for a parent-tier replay.
  size_t fault_target = 0;
};

struct ReplayResult {
  std::string cache_name;
  double alpha_f2r = 1.0;
  ReplayTotals totals;
  ReplayTotals steady;
  std::vector<SeriesPoint> series;

  // Steady-state summary metrics (Sec. 9 reporting convention).
  double efficiency = 0.0;
  double ingress_fraction = 0.0;
  double redirect_fraction = 0.0;
  // Whole-run fraction of requests the server was up for (1.0 without
  // fault injection). Unavailable traffic itself is in totals, steady and
  // series; restarts and resizes are the fault.* counters of
  // ReplayOptions::metrics.
  double availability = 1.0;

  // Wall-clock cost of the replay loop (excluding Prepare) and the resulting
  // host-time throughput.
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
};

// Replays the trace through the cache (calling Prepare first). Requests must
// be time-ordered.
ReplayResult Replay(core::CacheAlgorithm& cache, const trace::Trace& trace,
                    const ReplayOptions& options = {});

// Streaming replay: consumes a RequestStream in batch_size chunks without
// ever holding the full trace, so peak RSS is bounded by the producer's
// lookahead. Bit-identical to Replay() over the equivalent materialized
// trace -- outcomes, series, flight rings and digests -- at every thread
// count and batch size (see tests/sim_replay_stream_test.cc). Refuses
// offline algorithms (CacheAlgorithm::requires_full_trace), and CHECK-fails
// if the stream ends with a non-OK status (validate untrusted trace files
// up front via MmapTrace::Validate).
ReplayResult ReplayStream(core::CacheAlgorithm& cache, trace::RequestStream& stream,
                          const ReplayOptions& options = {});

// Builds a server's request stream on demand -- called on the replaying
// worker, so producer state (generator windows, mmap cursors) lives with the
// shard. Used by RunFleet / RunHierarchy as the streaming alternative to a
// materialized per-server Trace.
using StreamFactory = std::function<std::unique_ptr<trace::RequestStream>()>;

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_REPLAY_H_
