// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The VCDN edge wire protocol: length-prefixed binary frames over TCP.
//
// Every frame is a fixed 12-byte header followed by a type-specific body
// (native little-endian, like the VCDNTRS2 trace format):
//
//   offset  size  field
//        0     4  magic      0x4E444356 ("VCDN")
//        4     1  version    kProtocolVersion (1)
//        5     1  type       1 = request, 2 = response
//        6     2  reserved   must be 0
//        8     4  body_len   bytes after the header; hard-capped
//
//   request body (40 bytes):             response body (32 bytes):
//        0   u64  request_id                  0   u64  request_id
//        8   u64  video                       8   u64  requested_bytes
//       16   u64  byte_begin                 16   u8   decision (core::Decision)
//       24   u64  byte_end (inclusive)       17   u8   tier (sim::ServedTier)
//       32   f64  arrival_time               18   u16  reserved, must be 0
//                                            20   u32  hit_chunks
//                                            24   u32  filled_chunks
//                                            28   u32  evicted_chunks
//
// Parsing is hardened the way trace::MmapTrace::Open is (see
// trace_corruption_test): the length prefix is validated against a hard cap
// and the version/type/reserved fields are checked BEFORE any body is
// touched, truncated frames simply wait for more bytes (streaming), and
// every reject path returns a typed util::Status naming what was wrong.
// Decoding never allocates.

#ifndef VCDN_SRC_NET_PROTOCOL_H_
#define VCDN_SRC_NET_PROTOCOL_H_

#include <cstdint>

#include "src/net/wire_buffer.h"
#include "src/util/status.h"

namespace vcdn::net {

inline constexpr uint32_t kProtocolMagic = 0x4E444356;  // "VCDN" little-endian
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr size_t kRequestBodyBytes = 40;
inline constexpr size_t kResponseBodyBytes = 32;
// Hard cap on the declared body length, enforced before anything else is
// read: a hostile length prefix must be rejected without allocating or
// skipping ahead (mirror of MmapTrace::Open's record-count-vs-payload check).
inline constexpr size_t kMaxFrameBodyBytes = 256;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct RequestFrame {
  uint64_t request_id = 0;
  uint64_t video = 0;
  uint64_t byte_begin = 0;
  uint64_t byte_end = 0;  // inclusive, >= byte_begin
  double arrival_time = 0.0;
};

struct ResponseFrame {
  uint64_t request_id = 0;
  uint64_t requested_bytes = 0;
  uint8_t decision = 0;  // core::Decision
  uint8_t tier = 0;      // sim::ServedTier
  uint32_t hit_chunks = 0;
  uint32_t filled_chunks = 0;
  uint32_t evicted_chunks = 0;
};

// A decoded frame: exactly one of the two bodies is meaningful per `type`.
struct DecodedFrame {
  FrameType type = FrameType::kRequest;
  RequestFrame request;
  ResponseFrame response;
};

// Appends one encoded frame to `out` (header + body). Alloc-free once the
// buffer has grown to its working set.
void AppendRequest(WireBuffer& out, const RequestFrame& frame);
void AppendResponse(WireBuffer& out, const ResponseFrame& frame);

// Encoded sizes, for reservation math.
inline constexpr size_t kRequestFrameBytes = kFrameHeaderBytes + kRequestBodyBytes;
inline constexpr size_t kResponseFrameBytes = kFrameHeaderBytes + kResponseBodyBytes;

// Decodes the first frame of data[0..size). Three outcomes:
//   * ok(n), n > 0  -- one frame decoded into *out, n bytes consumed;
//   * ok(0)         -- the bytes so far are a valid prefix, read more;
//   * error Status  -- the stream is corrupt at this point and the
//                      connection must be dropped (kDataLoss for framing
//                      damage, kInvalidArgument for malformed fields,
//                      kOutOfRange for an oversized length prefix,
//                      kUnimplemented for an unknown version).
util::Result<size_t> DecodeFrame(const uint8_t* data, size_t size, DecodedFrame* out);

// Streaming convenience: DecodeFrame over a WireBuffer, consuming on success.
inline util::Result<size_t> DecodeFrame(WireBuffer& in, DecodedFrame* out) {
  util::Result<size_t> result = DecodeFrame(in.ReadPtr(), in.ReadableBytes(), out);
  if (result.ok() && result.value() > 0) {
    in.ConsumeRead(result.value());
  }
  return result;
}

}  // namespace vcdn::net

#endif  // VCDN_SRC_NET_PROTOCOL_H_
