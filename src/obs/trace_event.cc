// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/obs/trace_event.h"

#include <fstream>

#include "src/obs/json_util.h"

namespace vcdn::obs {

TraceEventSink::TraceEventSink() : origin_(std::chrono::steady_clock::now()) {}

double TraceEventSink::NowMicros() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

void TraceEventSink::AddComplete(std::string_view name, std::string_view category, double ts_us,
                                 double dur_us) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  events_.push_back(std::move(event));
}

void TraceEventSink::AddInstant(std::string_view name, std::string_view category) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'i';
  event.ts_us = NowMicros();
  events_.push_back(std::move(event));
}

void TraceEventSink::Append(const TraceEventSink& other, int tid) {
  const double shift_us =
      std::chrono::duration<double, std::micro>(other.origin_ - origin_).count();
  events_.reserve(events_.size() + other.events_.size());
  for (TraceEvent event : other.events_) {
    event.ts_us += shift_us;
    event.tid = tid;
    events_.push_back(std::move(event));
  }
}

namespace {

void WriteEvent(std::ostream& out, const TraceEvent& event) {
  out << "{\"name\":";
  WriteJsonString(out, event.name);
  out << ",\"cat\":";
  WriteJsonString(out, event.category.empty() ? std::string_view("vcdn")
                                              : std::string_view(event.category));
  out << ",\"ph\":\"" << event.phase << "\",\"pid\":1,\"tid\":" << event.tid << ",\"ts\":";
  WriteJsonDouble(out, event.ts_us);
  if (event.phase == 'X') {
    out << ",\"dur\":";
    WriteJsonDouble(out, event.dur_us);
  } else if (event.phase == 'i') {
    out << ",\"s\":\"t\"";
  }
  out << "}";
}

}  // namespace

void TraceEventSink::WriteTraceEventsArray(std::ostream& out) const {
  out << "[";
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    WriteEvent(out, events_[i]);
  }
  out << "]";
}

void WriteObsJson(std::ostream& out, const MetricsRegistry* registry, const TraceEventSink* sink,
                  const RunMetadata* meta) {
  out << "{\"traceEvents\":";
  if (sink != nullptr) {
    sink->WriteTraceEventsArray(out);
  } else {
    out << "[]";
  }
  out << ",\"displayTimeUnit\":\"ms\",\"meta\":";
  if (meta != nullptr) {
    WriteRunMetadataJson(out, *meta);
  } else {
    WriteRunMetadataJson(out, CollectRunMetadata());
  }
  out << ",\"metrics\":";
  if (registry != nullptr) {
    registry->WriteJson(out);
  } else {
    out << "{\"counters\":{},\"gauges\":{},\"hdr_histograms\":{}}";
  }
  out << "}\n";
}

util::Status WriteObsJsonFile(const std::string& path, const MetricsRegistry* registry,
                              const TraceEventSink* sink, const RunMetadata* meta) {
  std::ofstream out(path);
  if (!out) {
    return util::InvalidArgumentError("cannot open obs json path: " + path);
  }
  WriteObsJson(out, registry, sink, meta);
  out.flush();
  if (!out) {
    return util::DataLossError("short write to obs json path: " + path);
  }
  return util::OkStatus();
}

}  // namespace vcdn::obs
