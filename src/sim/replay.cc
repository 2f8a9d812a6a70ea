// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/sim/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "src/sim/decision_digest.h"

namespace vcdn::sim {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// The streaming replay loop shared by Replay (over a TraceView) and
// ReplayStream. Requests are pulled in spans and batched inside each span;
// batch cuts -- at bucket flushes, fault boundaries, outage windows and span
// edges -- are semantically invisible (see ReplayOptions::batch_size), so
// every observable is bit-identical no matter how the producer chunks the
// stream.
ReplayResult ReplayLoop(core::CacheAlgorithm& cache, trace::RequestStream& stream,
                        const ReplayOptions& options) {
  VCDN_CHECK(options.measurement_start_fraction >= 0.0 &&
             options.measurement_start_fraction < 1.0);

  const double duration = stream.duration();
  MetricsCollector collector(cache.config().chunk_bytes,
                             duration * options.measurement_start_fraction,
                             options.bucket_seconds);

  // Replay-level instruments; no-ops unless a registry is attached.
  obs::Counter requests_counter;
  obs::Counter buckets_counter;
  obs::Gauge sim_time_gauge;
  if (options.metrics != nullptr) {
    requests_counter = options.metrics->GetCounter("sim.replay.requests_total");
    buckets_counter = options.metrics->GetCounter("sim.replay.buckets_flushed_total");
    sim_time_gauge = options.metrics->GetGauge("sim.replay.sim_time_seconds");
  }
  // Bucket flushes feed the registry's replay instruments and the series;
  // both need a registry.
  const bool observing = options.metrics != nullptr;
  if (options.series != nullptr) {
    // The recorder snapshots the registry at window edges; without one there
    // is nothing to snapshot and the series would be silently empty.
    VCDN_CHECK(options.metrics != nullptr);
  }

  std::optional<fault::FaultDriver> fault_driver;
  if (options.faults != nullptr && !options.faults->empty()) {
    fault_driver.emplace(*options.faults, options.fault_target, &cache, options.metrics,
                         options.trace_sink);
  }

  const SteadyClock::time_point loop_start = SteadyClock::now();
  uint64_t processed = 0;
  int64_t current_bucket = -1;
  double last_arrival = 0.0;
  // Rendered lazily on the first fault-boundary capture, then reused.
  std::string fault_schedule_json;

  // Per-bucket flush: replay instruments, then the series window.
  auto flush = [&](double sim_time) {
    buckets_counter.Increment();
    sim_time_gauge.Set(sim_time);
    if (options.series != nullptr) {
      // Window edges are the bucket edges (not request times), so every
      // shard of a fleet keys the same windows and MergeFrom aligns exactly.
      const double start = static_cast<double>(current_bucket) * options.bucket_seconds;
      options.series->EndWindow(start, start + options.bucket_seconds);
    }
  };

  // Batched admission: consecutive cache-bound requests accumulate into one
  // RequestBatch (a view into the current span -- appends are always
  // adjacent because every skip path drains first) and reach the cache
  // through one HandleRequestBatch call. Outcomes are then recorded in
  // arrival order, so the collector, on_outcome consumers and counters see
  // exactly the per-request stream.
  const size_t batch_size = options.batch_size > 0 ? options.batch_size : 1;
  core::RequestBatch batch;
  batch.outcomes.resize(batch_size);

  auto drain = [&] {
    if (batch.count == 0) {
      return;
    }
    cache.HandleRequestBatch(batch);
    // The flight recorder's fault byte (0 normal, 1 degraded, 2 outage) is
    // constant within a batch because batches are cut at every fault
    // boundary and outage window.
    const uint8_t fault_state =
        fault_driver.has_value() && fault_driver->Degraded() ? uint8_t{1} : uint8_t{0};
    for (size_t i = 0; i < batch.count; ++i) {
      const trace::Request& request = batch.requests[i];
      const core::RequestOutcome& outcome = batch.outcomes[i];
      collector.Record(request.arrival_time, outcome);
      if (options.flight != nullptr) {
        options.flight->Record(MakeDecisionRecord(request, outcome, fault_state));
      }
      if (options.on_outcome) {
        options.on_outcome(request, outcome);
      }
    }
    processed += batch.count;
    requests_counter.Increment(batch.count);
    batch.requests = nullptr;
    batch.count = 0;
  };

  // Spans are pulled in multiples of the batch size so span edges only cut a
  // batch at end of stream (cuts are invisible either way, this just keeps
  // the batching effective).
  const size_t pull_size = batch_size * std::max<size_t>(size_t{1}, 4096 / batch_size);

  {
    VCDN_OBS_SCOPE(options.trace_sink, "replay.loop");
    for (;;) {
      const trace::RequestSpan span = stream.Next(pull_size);
      if (span.empty()) {
        break;
      }
      for (const trace::Request& request : span) {
        if (observing) {
          auto bucket = static_cast<int64_t>(
              std::floor(request.arrival_time / options.bucket_seconds));
          if (current_bucket >= 0 && bucket != current_bucket) {
            drain();  // the flush snapshot must reflect every prior request
            flush(request.arrival_time);
          }
          current_bucket = bucket;
        }
        last_arrival = request.arrival_time;
        bool unavailable = false;
        if (fault_driver.has_value()) {
          if (fault_driver->NextBoundaryTime() <= request.arrival_time) {
            // A boundary mutates the cache (Resize/DropContents); pending
            // requests precede it in simulated time, so they go first.
            drain();
            fault_driver->Advance(request.arrival_time);
            if (options.flight != nullptr && options.flight_captures != nullptr) {
              // Deferred dump of the decisions leading up to the boundary;
              // rendered to disk by the caller after any shards join.
              if (fault_schedule_json.empty()) {
                fault_schedule_json = fault::FaultScheduleToJson(*options.faults);
              }
              obs::PostMortemContext context;
              context.trigger = "fault_boundary";
              context.label = options.flight_label;
              context.sim_time = request.arrival_time;
              context.fault_schedule_json = fault_schedule_json;
              options.flight_captures->push_back(
                  obs::CaptureFlight(*options.flight, std::move(context)));
            }
          }
          unavailable = fault_driver->InOutage(request.arrival_time);
        }
        if (unavailable) {
          // The server is down: the request never reaches the cache and is
          // origin-served upstream (the hierarchy charges the penalty).
          drain();  // keep recording order intact around the outage
          core::RequestOutcome outcome;
          outcome.decision = core::Decision::kUnavailable;
          outcome.requested_bytes = request.size_bytes();
          outcome.requested_chunks =
              core::ToChunkRange(request, cache.config().chunk_bytes).count();
          fault_driver->RecordUnavailable(outcome);
          collector.Record(request.arrival_time, outcome);
          if (options.flight != nullptr) {
            options.flight->Record(MakeDecisionRecord(request, outcome, /*fault_state=*/2));
          }
          if (options.on_outcome) {
            options.on_outcome(request, outcome);
          }
          ++processed;
          requests_counter.Increment();
          continue;
        }
        if (batch.count == 0) {
          batch.requests = &request;
        }
        ++batch.count;
        if (batch.count >= batch_size) {
          drain();
        }
      }
      // The span's memory may be recycled by the next Next(): flush the tail
      // batch while the view is still valid.
      drain();
    }
  }

  // A truncated stream means the producer hit a malformed record mid-replay;
  // the results would silently cover a prefix. Untrusted files must be
  // validated up front (MmapTrace::Validate / trace_pack --verify).
  VCDN_CHECK_MSG(stream.status().ok(), "request stream failed mid-replay");

  ReplayResult result;
  result.cache_name = std::string(cache.name());
  result.alpha_f2r = cache.config().alpha_f2r;
  result.wall_seconds = SecondsSince(loop_start);
  result.requests_per_second =
      result.wall_seconds > 0.0 ? static_cast<double>(processed) / result.wall_seconds : 0.0;
  if (observing && processed > 0) {
    flush(last_arrival);  // final partial bucket
  }
  result.totals = collector.totals();
  result.steady = collector.steady();
  result.series = collector.Series();
  result.efficiency = result.steady.Efficiency(cache.cost_model());
  result.ingress_fraction = result.steady.IngressFraction();
  result.redirect_fraction = result.steady.RedirectFraction();
  result.availability = result.totals.Availability();
  if (fault_driver.has_value()) {
    // Apply any boundaries past the last request so end-of-trace restores
    // and restarts still count.
    fault_driver->Advance(duration);
  }
  return result;
}

}  // namespace

ReplayResult Replay(core::CacheAlgorithm& cache, const trace::Trace& trace,
                    const ReplayOptions& options) {
  if (options.metrics != nullptr) {
    cache.AttachMetrics(*options.metrics);
  }
  {
    VCDN_OBS_SCOPE(options.trace_sink, "replay.prepare");
    cache.Prepare(trace);
  }
  trace::TraceView view(trace);
  return ReplayLoop(cache, view, options);
}

ReplayResult ReplayStream(core::CacheAlgorithm& cache, trace::RequestStream& stream,
                          const ReplayOptions& options) {
  // Offline algorithms index the whole trace in Prepare(); feeding them a
  // stream would silently replay them unprepared.
  VCDN_CHECK_MSG(!cache.requires_full_trace(),
                 "cache algorithm needs the full trace (offline); use Replay()");
  if (options.metrics != nullptr) {
    cache.AttachMetrics(*options.metrics);
  }
  return ReplayLoop(cache, stream, options);
}

}  // namespace vcdn::sim
