// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The request/trace model of Section 4 of the paper: a request R carries a
// video ID R.v, an inclusive byte range [R.b0, R.b1], and an arrival
// timestamp R.t. Chunking math ([R.c0, R.c1] = [floor(b0/K), floor(b1/K)] for
// inclusive ranges) lives in src/core/chunk.h.

#ifndef VCDN_SRC_TRACE_REQUEST_H_
#define VCDN_SRC_TRACE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace vcdn::trace {

using VideoId = uint64_t;

// The largest video a request may name: every byte offset is below 64 GiB,
// so a video has at most 32,768 chunks of 2 MiB. xLRU and Cafe index a
// video's chunks by chunk number, so this bounds what one request can make
// them hold. The readers of outside input refuse a request that ends past
// it: net::DecodeFrame, ReadCsv, TraceFileWriter and MmapTrace (Validate
// and its streams), and the generator refuses a larger max_video_bytes.
inline constexpr uint64_t kMaxVideoBytes = uint64_t{1} << 36;

struct Request {
  double arrival_time = 0.0;  // seconds since trace origin
  VideoId video = 0;
  uint64_t byte_begin = 0;  // inclusive
  uint64_t byte_end = 0;    // inclusive; byte_end >= byte_begin

  uint64_t size_bytes() const {
    VCDN_DCHECK(byte_end >= byte_begin);
    return byte_end - byte_begin + 1;
  }
};

// A replayable request log. Requests are ordered by arrival time.
struct Trace {
  std::vector<Request> requests;
  // Covered time span [0, duration). Kept explicitly because the last request
  // rarely lands exactly at the end of the measurement window.
  double duration = 0.0;

  uint64_t TotalRequestedBytes() const {
    uint64_t total = 0;
    for (const Request& r : requests) {
      total += r.size_bytes();
    }
    return total;
  }

  // Number of distinct video IDs appearing in the trace.
  size_t DistinctVideos() const;

  // Verifies arrival times are non-decreasing and ranges well-formed and
  // below kMaxVideoBytes.
  bool IsWellFormed() const;
};

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_REQUEST_H_
