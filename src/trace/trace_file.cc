// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/trace_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/util/check.h"

namespace vcdn::trace {

namespace {

// The payload is read in place: a mapped record span is reinterpreted as a
// span of Requests, so the wire layout IS the in-memory layout.
static_assert(sizeof(Request) == 32, "record layout drifted from trace::Request");
static_assert(alignof(Request) == 8, "record alignment drifted");
static_assert(std::is_trivially_copyable_v<Request>, "records must be trivially copyable");
static_assert(offsetof(Request, arrival_time) == 0 && offsetof(Request, video) == 8 &&
                  offsetof(Request, byte_begin) == 16 && offsetof(Request, byte_end) == 24,
              "record field order drifted");

constexpr char kMagic[8] = {'V', 'C', 'D', 'N', 'T', 'R', 'S', '2'};
constexpr uint32_t kVersion = 2;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kIndexEntryBytes = 48;
constexpr uint64_t kRecordBytes = sizeof(Request);

struct FileHeader {
  char magic[8];
  uint32_t header_version;
  uint32_t header_bytes;
  uint32_t index_entry_bytes;
  uint32_t flags;  // none defined in v2; readers reject unknown bits
  uint64_t server_count;
  uint64_t total_records;
  double duration;  // max over the per-server durations
  uint64_t total_catalog_videos;
  uint64_t reserved;
};
static_assert(sizeof(FileHeader) == kHeaderBytes, "header layout drifted");
static_assert(sizeof(TraceServerInfo) == kIndexEntryBytes, "index layout drifted");
// Records start at 64 + 48*n, a multiple of 8: mapped Requests stay aligned.
static_assert(kHeaderBytes % 8 == 0 && kIndexEntryBytes % 8 == 0);

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Zero-copy stream over one mapped server section. Records are validated
// lazily, a span at a time; the stream ends early (and status() turns
// non-OK) at the first malformed record, so replay over an unvalidated file
// can never feed garbage to a cache.
class MmapServerStream final : public RequestStream {
 public:
  MmapServerStream(const Request* records, const TraceServerInfo& info)
      : records_(records), info_(info) {}

  RequestSpan Next(size_t max) override {
    VCDN_DCHECK(max > 0);
    if (cursor_ >= info_.record_count) {
      return {};
    }
    const size_t want = std::min<uint64_t>(max, info_.record_count - cursor_);
    size_t good = 0;
    for (; good < want; ++good) {
      const Request& r = records_[cursor_ + good];
      if (!std::isfinite(r.arrival_time) || r.arrival_time < 0.0 ||
          r.arrival_time < last_time_ || r.arrival_time > info_.duration ||
          r.byte_end < r.byte_begin || r.byte_end >= kMaxVideoBytes) {
        status_ = util::DataLossError("corrupt record " + std::to_string(cursor_ + good) +
                                      ": non-finite/out-of-order time, or a range inverted or "
                                      "past kMaxVideoBytes");
        break;
      }
      last_time_ = r.arrival_time;
    }
    RequestSpan span{records_ + cursor_, good};
    if (!status_.ok()) {
      cursor_ = info_.record_count;  // end the stream permanently
    } else {
      cursor_ += good;
    }
    return span;
  }

  double duration() const override { return info_.duration; }
  uint64_t total_requests_hint() const override { return info_.record_count; }
  util::Status status() const override { return status_; }

 private:
  const Request* records_;
  TraceServerInfo info_;
  uint64_t cursor_ = 0;
  double last_time_ = 0.0;
  util::Status status_ = util::OkStatus();
};

}  // namespace

// --- Writer ------------------------------------------------------------------

util::Status TraceFileWriter::Open(const std::string& path, size_t server_count) {
  if (out_.is_open()) {
    return util::FailedPreconditionError("writer already open");
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return util::NotFoundError("cannot open for write: " + path);
  }
  server_count_ = server_count;
  // Placeholder header + index, patched by Finish().
  std::vector<char> zeros(kHeaderBytes + kIndexEntryBytes * server_count, 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  if (!out_) {
    return util::DataLossError("write failed: placeholder header");
  }
  return util::OkStatus();
}

util::Status TraceFileWriter::BeginServer(double duration, uint64_t catalog_videos) {
  if (!out_.is_open() || finished_) {
    return util::FailedPreconditionError("writer not open");
  }
  if (index_.size() >= server_count_) {
    return util::FailedPreconditionError("more server sections than the declared " +
                                         std::to_string(server_count_));
  }
  if (!std::isfinite(duration) || duration < 0.0) {
    return util::InvalidArgumentError("non-finite or negative server duration");
  }
  TraceServerInfo info;
  info.record_offset = records_written_;
  info.duration = duration;
  info.catalog_videos = catalog_videos;
  index_.push_back(info);
  in_server_ = true;
  last_time_ = -1.0;
  return util::OkStatus();
}

util::Status TraceFileWriter::Append(const Request* records, size_t count) {
  if (!in_server_) {
    return util::FailedPreconditionError("Append before BeginServer");
  }
  TraceServerInfo& info = index_.back();
  for (size_t i = 0; i < count; ++i) {
    const Request& r = records[i];
    if (!std::isfinite(r.arrival_time) || r.arrival_time < 0.0) {
      return util::InvalidArgumentError("record " + std::to_string(info.record_count + i) +
                                        ": non-finite or negative arrival_time");
    }
    if (r.arrival_time < last_time_) {
      return util::InvalidArgumentError("record " + std::to_string(info.record_count + i) +
                                        ": arrival_time out of order");
    }
    if (r.arrival_time > info.duration) {
      return util::InvalidArgumentError("record " + std::to_string(info.record_count + i) +
                                        ": arrival_time after the section duration");
    }
    if (r.byte_end < r.byte_begin) {
      return util::InvalidArgumentError("record " + std::to_string(info.record_count + i) +
                                        ": byte_end < byte_begin");
    }
    if (r.byte_end >= kMaxVideoBytes) {
      return util::OutOfRangeError("record " + std::to_string(info.record_count + i) +
                                   ": byte_end past the largest video (kMaxVideoBytes)");
    }
    last_time_ = r.arrival_time;
  }
  if (count > 0) {
    if (info.record_count == 0) {
      info.min_time = records[0].arrival_time;
    }
    info.max_time = records[count - 1].arrival_time;
    out_.write(reinterpret_cast<const char*>(records),
               static_cast<std::streamsize>(count * kRecordBytes));
    if (!out_) {
      return util::DataLossError("write failed: record payload");
    }
    info.record_count += count;
    records_written_ += count;
  }
  return util::OkStatus();
}

util::Status TraceFileWriter::AppendTrace(const Trace& trace, uint64_t catalog_videos) {
  VCDN_RETURN_IF_ERROR(BeginServer(trace.duration, catalog_videos));
  return Append(trace.requests.data(), trace.requests.size());
}

util::Status TraceFileWriter::Finish() {
  if (!out_.is_open() || finished_) {
    return util::FailedPreconditionError("writer not open");
  }
  if (index_.size() != server_count_) {
    return util::FailedPreconditionError("declared " + std::to_string(server_count_) +
                                         " servers but wrote " + std::to_string(index_.size()));
  }
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.header_version = kVersion;
  header.header_bytes = static_cast<uint32_t>(kHeaderBytes);
  header.index_entry_bytes = static_cast<uint32_t>(kIndexEntryBytes);
  header.flags = 0;
  header.server_count = server_count_;
  header.total_records = records_written_;
  header.duration = 0.0;
  header.total_catalog_videos = 0;
  for (const TraceServerInfo& info : index_) {
    header.duration = std::max(header.duration, info.duration);
    header.total_catalog_videos += info.catalog_videos;
  }
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.write(reinterpret_cast<const char*>(index_.data()),
             static_cast<std::streamsize>(index_.size() * kIndexEntryBytes));
  out_.flush();
  if (!out_) {
    return util::DataLossError("write failed: header patch");
  }
  out_.close();
  finished_ = true;
  return util::OkStatus();
}

util::Status WriteTraceFile(const std::vector<const Trace*>& traces, const std::string& path,
                            const std::vector<uint64_t>& catalog_videos) {
  if (!catalog_videos.empty() && catalog_videos.size() != traces.size()) {
    return util::InvalidArgumentError("catalog_videos not parallel to traces");
  }
  TraceFileWriter writer;
  VCDN_RETURN_IF_ERROR(writer.Open(path, traces.size()));
  for (size_t i = 0; i < traces.size(); ++i) {
    VCDN_RETURN_IF_ERROR(
        writer.AppendTrace(*traces[i], catalog_videos.empty() ? 0 : catalog_videos[i]));
  }
  return writer.Finish();
}

// --- Reader ------------------------------------------------------------------

MmapTrace& MmapTrace::operator=(MmapTrace&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) {
      ::munmap(base_, map_bytes_);
    }
    base_ = std::exchange(other.base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    records_ = std::exchange(other.records_, nullptr);
    servers_ = std::move(other.servers_);
    total_records_ = std::exchange(other.total_records_, 0);
    total_catalog_videos_ = std::exchange(other.total_catalog_videos_, 0);
    duration_ = std::exchange(other.duration_, 0.0);
  }
  return *this;
}

MmapTrace::~MmapTrace() {
  if (base_ != nullptr) {
    ::munmap(base_, map_bytes_);
  }
}

util::Result<MmapTrace> MmapTrace::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::NotFoundError("cannot open: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::InternalError(ErrnoMessage("fstat failed"));
  }
  const auto file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    return util::DataLossError("truncated header: file is " + std::to_string(file_bytes) +
                               " bytes, the VCDNTRS2 header is " + std::to_string(kHeaderBytes));
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return util::InternalError(ErrnoMessage("mmap failed"));
  }

  // The mapping is owned from here on: any early return unmaps via ~MmapTrace.
  MmapTrace trace;
  trace.base_ = base;
  trace.map_bytes_ = file_bytes;

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::InvalidArgumentError("bad magic: not a VCDNTRS2 trace file");
  }
  if (header.header_version != kVersion) {
    return util::InvalidArgumentError("unsupported trace file version " +
                                      std::to_string(header.header_version) + " (expected " +
                                      std::to_string(kVersion) + ")");
  }
  if (header.header_bytes != kHeaderBytes || header.index_entry_bytes != kIndexEntryBytes) {
    return util::InvalidArgumentError("unexpected header/index entry size");
  }
  if (header.flags != 0) {
    return util::InvalidArgumentError("unknown header flags " + std::to_string(header.flags));
  }
  if (!std::isfinite(header.duration) || header.duration < 0.0) {
    return util::DataLossError("corrupt header: non-finite or negative duration");
  }
  // Never trust a count before bounding it by the bytes actually present.
  if (header.server_count > (file_bytes - kHeaderBytes) / kIndexEntryBytes) {
    return util::DataLossError("truncated server index: header claims " +
                               std::to_string(header.server_count) + " servers");
  }
  const uint64_t payload_offset = kHeaderBytes + header.server_count * kIndexEntryBytes;
  const uint64_t payload_bytes = file_bytes - payload_offset;
  if (header.total_records > payload_bytes / kRecordBytes) {
    return util::DataLossError("corrupt header: record count " +
                               std::to_string(header.total_records) + " exceeds the " +
                               std::to_string(payload_bytes) + " payload bytes present");
  }
  if (header.total_records * kRecordBytes != payload_bytes) {
    return util::InvalidArgumentError(
        "count/payload mismatch: " +
        std::to_string(payload_bytes - header.total_records * kRecordBytes) +
        " trailing bytes after the last record");
  }

  const char* bytes = static_cast<const char*>(base);
  trace.servers_.resize(header.server_count);
  uint64_t running = 0;
  for (uint64_t i = 0; i < header.server_count; ++i) {
    TraceServerInfo& info = trace.servers_[i];
    std::memcpy(&info, bytes + kHeaderBytes + i * kIndexEntryBytes, kIndexEntryBytes);
    if (!std::isfinite(info.duration) || !std::isfinite(info.min_time) ||
        !std::isfinite(info.max_time) || info.duration < 0.0 || info.min_time < 0.0 ||
        info.max_time < 0.0) {
      return util::DataLossError("corrupt index entry " + std::to_string(i) +
                                 ": non-finite or negative time field");
    }
    if (info.min_time > info.max_time || info.max_time > info.duration) {
      return util::InvalidArgumentError("corrupt index entry " + std::to_string(i) +
                                        ": time range inconsistent with duration");
    }
    if (info.record_offset != running) {
      return util::InvalidArgumentError("server index out of order or not dense at entry " +
                                        std::to_string(i));
    }
    if (info.record_count > header.total_records - running) {
      return util::InvalidArgumentError("index record counts exceed the header total at entry " +
                                        std::to_string(i));
    }
    running += info.record_count;
    trace.total_catalog_videos_ += info.catalog_videos;
  }
  if (running != header.total_records) {
    return util::InvalidArgumentError("index record counts sum to " + std::to_string(running) +
                                      " but the header claims " +
                                      std::to_string(header.total_records));
  }

  trace.records_ = reinterpret_cast<const Request*>(bytes + payload_offset);
  trace.total_records_ = header.total_records;
  trace.duration_ = header.duration;
  return trace;
}

std::unique_ptr<RequestStream> MmapTrace::ServerStream(size_t server) const {
  VCDN_CHECK(server < servers_.size());
  const TraceServerInfo& info = servers_[server];
  return std::make_unique<MmapServerStream>(records_ + info.record_offset, info);
}

util::Result<uint64_t> MmapTrace::Validate() const {
  RequestDigest digest;
  for (size_t s = 0; s < servers_.size(); ++s) {
    const TraceServerInfo& info = servers_[s];
    const Request* records = records_ + info.record_offset;
    double last = 0.0;
    for (uint64_t i = 0; i < info.record_count; ++i) {
      const Request& r = records[i];
      if (!std::isfinite(r.arrival_time) || r.arrival_time < 0.0 || r.arrival_time < last ||
          r.arrival_time > info.duration || r.byte_end < r.byte_begin ||
          r.byte_end >= kMaxVideoBytes) {
        return util::DataLossError("server " + std::to_string(s) + " record " + std::to_string(i) +
                                   ": non-finite/out-of-order time, or a range inverted or past "
                                   "kMaxVideoBytes");
      }
      last = r.arrival_time;
      digest.Fold(r);
    }
    const double expect_min = info.record_count > 0 ? records[0].arrival_time : 0.0;
    const double expect_max = info.record_count > 0 ? records[info.record_count - 1].arrival_time : 0.0;
    if (info.min_time != expect_min || info.max_time != expect_max) {
      return util::InvalidArgumentError("index entry " + std::to_string(s) +
                                        ": min/max_time disagree with the records");
    }
  }
  return digest.value();
}

util::Result<Trace> MmapTrace::ReadServer(size_t server) const {
  if (server >= servers_.size()) {
    return util::InvalidArgumentError("server " + std::to_string(server) + " out of range");
  }
  const TraceServerInfo& info = servers_[server];
  auto stream = ServerStream(server);
  Trace trace;
  trace.duration = info.duration;
  trace.requests.reserve(static_cast<size_t>(info.record_count));
  for (;;) {
    RequestSpan span = stream->Next(64 * 1024);
    if (span.empty()) {
      break;
    }
    trace.requests.insert(trace.requests.end(), span.begin(), span.end());
  }
  VCDN_RETURN_IF_ERROR(stream->status());
  return trace;
}

}  // namespace vcdn::trace
