// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// VCDNTRS2: versioned multi-server binary trace format, mmap'd and replayed
// zero-copy. The header carries everything replay needs to pre-size --
// total record count, covered time range, catalog size, and a per-server
// index -- so a month-long fleet trace opens in O(1) and streams with peak
// RSS independent of trace length. Records are fixed-width (32 bytes) with
// exactly trace::Request's layout, so a mapped span IS a span of Requests.
//
// Layout (all fields native little-endian, naturally aligned):
//
//   [0)   64-byte file header (magic "VCDNTRS2", version, layout constants,
//         server count, total records, duration, catalog size)
//   [64)  server_count x 48-byte index entries (dense, in file order:
//         record offset/count, duration, min/max arrival time, catalog size)
//   [64 + 48*server_count)  total_records x 32-byte request records,
//         grouped by server, time-ordered within each server
//
// Hostile-file rigor: Open() validates the header and index against the
// actual file size before trusting any count (structural mismatches ->
// InvalidArgument, truncation/bit-rot -> DataLoss), and per-record
// validation happens lazily as spans are pulled (streams end early with a
// non-OK status()) or eagerly via Validate().
// docs/TRACE_FORMAT.md documents the layout and the versioning rules.

#ifndef VCDN_SRC_TRACE_TRACE_FILE_H_
#define VCDN_SRC_TRACE_TRACE_FILE_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/request.h"
#include "src/trace/request_stream.h"
#include "src/util/fnv1a.h"
#include "src/util/status.h"

namespace vcdn::trace {

// One per-server section of a packed trace file. Also the on-disk index
// entry layout (48 bytes, no padding).
struct TraceServerInfo {
  uint64_t record_offset = 0;  // in records, from the start of the payload
  uint64_t record_count = 0;
  double duration = 0.0;  // covered span [0, duration) of this server
  double min_time = 0.0;  // first arrival (0 when the section is empty)
  double max_time = 0.0;  // last arrival (0 when the section is empty)
  uint64_t catalog_videos = 0;  // 0 when unknown (e.g. CSV-sourced)
};
static_assert(sizeof(TraceServerInfo) == 48, "index entry layout drifted");

// FNV-1a over raw 32-byte record images; the round-trip digest trace_pack
// --verify and the scale bench use to prove packed == generated.
class RequestDigest {
 public:
  void Fold(const Request& r) {
    hash_.FoldBytes(&r, sizeof(Request));
    ++count_;
  }
  void Fold(const Request* records, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Fold(records[i]);
    }
  }
  uint64_t value() const { return hash_.value(); }
  uint64_t count() const { return count_; }

 private:
  util::Fnv1a hash_;
  uint64_t count_ = 0;
};

// Streams per-server sections into a packed trace file. Usage:
//
//   TraceFileWriter writer;
//   writer.Open(path, server_count);
//   for each server: writer.BeginServer(duration, catalog_videos);
//                    writer.Append(span.data, span.count);  // repeatedly
//   writer.Finish();   // patches header + index
//
// Append validates as it goes (finite, time-ordered within the server,
// well-formed ranges) so a packed file is well-formed by construction.
class TraceFileWriter {
 public:
  TraceFileWriter() = default;

  util::Status Open(const std::string& path, size_t server_count);
  util::Status BeginServer(double duration, uint64_t catalog_videos = 0);
  util::Status Append(const Request* records, size_t count);
  // Convenience: BeginServer + Append the whole materialized trace.
  util::Status AppendTrace(const Trace& trace, uint64_t catalog_videos = 0);
  // Writes the real header and index over the placeholders. Fails unless
  // exactly server_count sections were begun.
  util::Status Finish();

 private:
  std::ofstream out_;
  size_t server_count_ = 0;
  uint64_t records_written_ = 0;
  double last_time_ = 0.0;
  bool in_server_ = false;
  bool finished_ = false;
  std::vector<TraceServerInfo> index_;
};

// Packs one materialized trace per server; catalog_videos (when non-empty)
// must be parallel to traces.
util::Status WriteTraceFile(const std::vector<const Trace*>& traces, const std::string& path,
                            const std::vector<uint64_t>& catalog_videos = {});

// A memory-mapped packed trace. Open() validates header and index; records
// are validated lazily by ServerStream() (status() reports a mid-stream
// failure) or eagerly by Validate(). Streams borrow the mapping: the
// MmapTrace must outlive every stream it hands out.
class MmapTrace {
 public:
  static util::Result<MmapTrace> Open(const std::string& path);

  MmapTrace(MmapTrace&& other) noexcept { *this = std::move(other); }
  MmapTrace& operator=(MmapTrace&& other) noexcept;
  MmapTrace(const MmapTrace&) = delete;
  MmapTrace& operator=(const MmapTrace&) = delete;
  ~MmapTrace();

  size_t server_count() const { return servers_.size(); }
  const TraceServerInfo& server(size_t i) const { return servers_[i]; }
  uint64_t total_records() const { return total_records_; }
  double duration() const { return duration_; }
  uint64_t total_catalog_videos() const { return total_catalog_videos_; }

  // Zero-copy request stream over one server section.
  std::unique_ptr<RequestStream> ServerStream(size_t server) const;

  // Full eager scan: every record checked (finite time, ordered within its
  // server, well-formed range, consistent with its index entry); returns
  // the FNV-1a digest over all records. Run this before trusting an
  // untrusted file on a replay path that CHECKs stream status.
  util::Result<uint64_t> Validate() const;

  // Materializes one server section as a validated Trace (tests, small
  // files, feeding offline caches that need the full trace).
  util::Result<Trace> ReadServer(size_t server) const;

 private:
  MmapTrace() = default;

  void* base_ = nullptr;
  size_t map_bytes_ = 0;
  const Request* records_ = nullptr;
  std::vector<TraceServerInfo> servers_;
  uint64_t total_records_ = 0;
  uint64_t total_catalog_videos_ = 0;
  double duration_ = 0.0;
};

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_TRACE_FILE_H_
