// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/trace_io.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "src/util/str_util.h"

namespace vcdn::trace {

namespace {

constexpr char kCsvHeader[] = "arrival_time,video,byte_begin,byte_end";

}  // namespace

util::Status WriteCsv(const Trace& trace, std::ostream& out) {
  out << kCsvHeader << "\n";
  out << "# duration_seconds=" << trace.duration << "\n";
  char line[128];
  for (const Request& r : trace.requests) {
    std::snprintf(line, sizeof(line), "%.6f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  r.arrival_time, r.video, r.byte_begin, r.byte_end);
    out << line;
  }
  if (!out) {
    return util::DataLossError("CSV write failed");
  }
  return util::OkStatus();
}

util::Status WriteCsvFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return util::NotFoundError("cannot open for write: " + path);
  }
  return WriteCsv(trace, out);
}

util::Result<Trace> ReadCsv(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader) {
    return util::InvalidArgumentError("missing or wrong CSV header");
  }
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // Optional metadata comment: "# duration_seconds=<x>".
      auto eq = line.find('=');
      if (eq != std::string::npos && line.find("duration_seconds") != std::string::npos) {
        double d = 0.0;
        if (util::ParseDouble(std::string_view(line).substr(eq + 1), &d)) {
          // A parsed-but-broken duration is corruption, not a missing
          // comment: reject it instead of silently keeping 0.
          if (!std::isfinite(d) || d < 0.0) {
            return util::InvalidArgumentError("line " + std::to_string(line_number) +
                                              ": non-finite or negative duration_seconds");
          }
          trace.duration = d;
        }
      }
      continue;
    }
    auto fields = util::SplitString(line, ',');
    if (fields.size() != 4) {
      return util::InvalidArgumentError("line " + std::to_string(line_number) +
                                        ": expected 4 fields");
    }
    Request r;
    if (!util::ParseDouble(fields[0], &r.arrival_time) || !util::ParseUint64(fields[1], &r.video) ||
        !util::ParseUint64(fields[2], &r.byte_begin) || !util::ParseUint64(fields[3], &r.byte_end)) {
      return util::InvalidArgumentError("line " + std::to_string(line_number) + ": parse error");
    }
    if (!std::isfinite(r.arrival_time)) {
      return util::InvalidArgumentError("line " + std::to_string(line_number) +
                                        ": non-finite arrival_time");
    }
    if (r.byte_end < r.byte_begin) {
      return util::InvalidArgumentError("line " + std::to_string(line_number) +
                                        ": byte_end < byte_begin");
    }
    if (r.byte_end >= kMaxVideoBytes) {
      return util::OutOfRangeError("line " + std::to_string(line_number) +
                                   ": byte_end past the largest video (kMaxVideoBytes)");
    }
    trace.requests.push_back(r);
  }
  if (trace.duration == 0.0 && !trace.requests.empty()) {
    trace.duration = trace.requests.back().arrival_time;
  }
  if (!trace.IsWellFormed()) {
    return util::InvalidArgumentError("trace not in arrival-time order");
  }
  return trace;
}

util::Result<Trace> ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::NotFoundError("cannot open: " + path);
  }
  return ReadCsv(in);
}

}  // namespace vcdn::trace
