// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Event tracing and profiling hooks: a TraceEventSink accumulates events in
// the Chrome trace_event JSON format (loadable in chrome://tracing and
// Perfetto; see docs/OBSERVABILITY.md), and ScopedSpan / VCDN_OBS_SCOPE are
// RAII wall-clock timers for profiling hot paths.
//
// Like the metrics layer, everything is pull-based and nullable: a null sink
// makes every helper a no-op (a scoped span on a null sink never even reads
// the clock), so instrumented code costs one pointer test when tracing is
// off.
//
// Event kinds emitted:
//   * complete spans   ("ph":"X")  -- scoped timers, with microsecond ts/dur
//     relative to the sink's creation;
//   * instants         ("ph":"i")  -- point annotations.
// Per-bucket instrument values are the time-series recorder's job
// (src/obs/time_series.h), not the sink's.
//
// Thread safety: unlike the metrics registry, a TraceEventSink is
// single-threaded -- recording methods must not race. Parallel code records
// into one sink per shard/worker and merges them after the join via Append
// (see exec::ThreadPool and sim::RunFleet); only NowMicros is safe to call
// concurrently.

#ifndef VCDN_SRC_OBS_TRACE_EVENT_H_
#define VCDN_SRC_OBS_TRACE_EVENT_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/run_metadata.h"
#include "src/util/status.h"

namespace vcdn::obs {

// First trace lane used for merged per-shard sinks (sim::RunFleet); keeps
// fleet lanes clear of the main thread (1) and executor workers (2 + i).
inline constexpr int kFleetTidBase = 100;

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';     // 'X' complete, 'i' instant
  double ts_us = 0.0;   // microseconds since sink creation
  double dur_us = 0.0;  // complete events only
  // Rendered as the Chrome trace "tid": one horizontal lane per tid in the
  // viewer. Lane 1 is the main thread; executor workers use 2 + worker index
  // (exec::ThreadPool), merged fleet shards use kFleetTidBase + shard index.
  int tid = 1;
};

class TraceEventSink {
 public:
  TraceEventSink();
  TraceEventSink(TraceEventSink&&) = default;
  TraceEventSink& operator=(TraceEventSink&&) = default;
  TraceEventSink(const TraceEventSink&) = delete;
  TraceEventSink& operator=(const TraceEventSink&) = delete;

  // Microseconds of wall clock since the sink was created. Const and
  // mutation-free, so safe to call from any thread (the event-recording
  // methods below are not -- see the thread-safety note at the top).
  double NowMicros() const;

  void AddComplete(std::string_view name, std::string_view category, double ts_us, double dur_us);
  void AddInstant(std::string_view name, std::string_view category);
  // Fully specified event (callers that set tid themselves).
  void Add(TraceEvent event) { events_.push_back(std::move(event)); }

  // Appends a copy of `other`'s events, re-tagged onto lane `tid`, with each
  // timestamp rebased from `other`'s creation to this sink's, so a merged
  // shard lane lines up with the spans recorded here (e.g. the pool-worker
  // span that ran the shard). Event order is other's recording order:
  // merging shard sinks in a fixed order yields a deterministic event list.
  void Append(const TraceEventSink& other, int tid);

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t num_events() const { return events_.size(); }

  // The events array, for embedding in a larger JSON object (WriteObsJson).
  void WriteTraceEventsArray(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> events_;
};

// RAII wall-clock span: records a complete event over its lifetime. No-op
// (and clock-free) when the sink is null. `name` and `category` must outlive
// the span (string literals in practice).
class ScopedSpan {
 public:
  ScopedSpan(TraceEventSink* sink, const char* name, const char* category = "vcdn")
      : sink_(sink), name_(name), category_(category) {
    if (sink_ != nullptr) {
      start_us_ = sink_->NowMicros();
    }
  }
  ~ScopedSpan() {
    if (sink_ != nullptr) {
      sink_->AddComplete(name_, category_, start_us_, sink_->NowMicros() - start_us_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceEventSink* sink_;
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
};

// Writes the combined observability dump used by the benches' --obs-json
// flag: a valid Chrome trace object with the metrics registry embedded under
// a "metrics" key and the run metadata under "meta" (trace viewers ignore
// unknown top-level keys). Either registry/sink pointer may be null; the
// corresponding section is then empty. A null `meta` embeds the compiled-in
// provenance with empty run-shape fields (CollectRunMetadata).
void WriteObsJson(std::ostream& out, const MetricsRegistry* registry, const TraceEventSink* sink,
                  const RunMetadata* meta = nullptr);

// File variant. Returns a non-OK Status naming the path when the file cannot
// be opened or the write fails -- a dropped obs dump must never look like a
// successful run.
util::Status WriteObsJsonFile(const std::string& path, const MetricsRegistry* registry,
                              const TraceEventSink* sink, const RunMetadata* meta = nullptr);

#define VCDN_OBS_SCOPE_CONCAT_(a, b) a##b
#define VCDN_OBS_SCOPE_NAME_(line) VCDN_OBS_SCOPE_CONCAT_(vcdn_obs_scope_, line)
// Usage: VCDN_OBS_SCOPE(sink_ptr, "replay.loop");  -- sink_ptr may be null.
#define VCDN_OBS_SCOPE(sink, name) \
  ::vcdn::obs::ScopedSpan VCDN_OBS_SCOPE_NAME_(__LINE__)((sink), (name))

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_TRACE_EVENT_H_
