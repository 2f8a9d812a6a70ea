// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/net/protocol.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/trace/request.h"

namespace vcdn::net {

namespace {

// Native little-endian load/store through memcpy (the supported targets are
// little-endian, same convention as the VCDNTRS2 trace format).
template <typename T>
void Store(uint8_t* dst, T value) {
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
T Load(const uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

void AppendHeader(WireBuffer& out, FrameType type, size_t body_len) {
  uint8_t header[kFrameHeaderBytes];
  Store<uint32_t>(header + 0, kProtocolMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<uint8_t>(type);
  Store<uint16_t>(header + 6, 0);
  Store<uint32_t>(header + 8, static_cast<uint32_t>(body_len));
  out.Append(header, sizeof(header));
}

}  // namespace

void AppendRequest(WireBuffer& out, const RequestFrame& frame) {
  out.EnsureWritable(kRequestFrameBytes);
  AppendHeader(out, FrameType::kRequest, kRequestBodyBytes);
  uint8_t body[kRequestBodyBytes];
  Store<uint64_t>(body + 0, frame.request_id);
  Store<uint64_t>(body + 8, frame.video);
  Store<uint64_t>(body + 16, frame.byte_begin);
  Store<uint64_t>(body + 24, frame.byte_end);
  Store<double>(body + 32, frame.arrival_time);
  out.Append(body, sizeof(body));
}

void AppendResponse(WireBuffer& out, const ResponseFrame& frame) {
  out.EnsureWritable(kResponseFrameBytes);
  AppendHeader(out, FrameType::kResponse, kResponseBodyBytes);
  uint8_t body[kResponseBodyBytes];
  Store<uint64_t>(body + 0, frame.request_id);
  Store<uint64_t>(body + 8, frame.requested_bytes);
  body[16] = frame.decision;
  body[17] = frame.tier;
  Store<uint16_t>(body + 18, 0);
  Store<uint32_t>(body + 20, frame.hit_chunks);
  Store<uint32_t>(body + 24, frame.filled_chunks);
  Store<uint32_t>(body + 28, frame.evicted_chunks);
  out.Append(body, sizeof(body));
}

util::Result<size_t> DecodeFrame(const uint8_t* data, size_t size, DecodedFrame* out) {
  if (size < kFrameHeaderBytes) {
    return size_t{0};  // valid prefix; wait for the rest of the header
  }
  // Header checks, in damage-localizing order: all of them run before a
  // single body byte is interpreted, and the length cap runs before the
  // body is even waited for.
  const uint32_t magic = Load<uint32_t>(data + 0);
  if (magic != kProtocolMagic) {
    return util::DataLossError("frame magic mismatch (got 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08X", magic);
      return std::string(buf);
    }() + ", want 0x4E444356): stream corrupt or not a VCDN peer");
  }
  const uint8_t version = data[4];
  if (version != kProtocolVersion) {
    return util::Status(util::StatusCode::kUnimplemented,
                        "unsupported protocol version " + std::to_string(version) +
                            " (this build speaks version " +
                            std::to_string(kProtocolVersion) + ")");
  }
  const uint8_t raw_type = data[5];
  if (raw_type != static_cast<uint8_t>(FrameType::kRequest) &&
      raw_type != static_cast<uint8_t>(FrameType::kResponse)) {
    return util::InvalidArgumentError("unknown frame type " + std::to_string(raw_type));
  }
  const uint16_t reserved = Load<uint16_t>(data + 6);
  if (reserved != 0) {
    return util::InvalidArgumentError("nonzero reserved header field " +
                                      std::to_string(reserved));
  }
  const uint32_t body_len = Load<uint32_t>(data + 8);
  if (body_len > kMaxFrameBodyBytes) {
    // The cap check precedes everything about the body, so a hostile length
    // prefix can neither trigger an allocation nor park the connection
    // waiting for gigabytes that will never come.
    return util::OutOfRangeError("frame body length " + std::to_string(body_len) +
                                 " exceeds the " + std::to_string(kMaxFrameBodyBytes) +
                                 "-byte cap");
  }
  const FrameType type = static_cast<FrameType>(raw_type);
  const size_t expected_body =
      type == FrameType::kRequest ? kRequestBodyBytes : kResponseBodyBytes;
  if (body_len != expected_body) {
    return util::DataLossError("frame body length " + std::to_string(body_len) +
                               " does not match type " + std::to_string(raw_type) +
                               " (want " + std::to_string(expected_body) + ")");
  }
  const size_t frame_bytes = kFrameHeaderBytes + expected_body;
  if (size < frame_bytes) {
    return size_t{0};  // truncated mid-body: wait, do not reject
  }

  const uint8_t* body = data + kFrameHeaderBytes;
  out->type = type;
  if (type == FrameType::kRequest) {
    RequestFrame& frame = out->request;
    frame.request_id = Load<uint64_t>(body + 0);
    frame.video = Load<uint64_t>(body + 8);
    frame.byte_begin = Load<uint64_t>(body + 16);
    frame.byte_end = Load<uint64_t>(body + 24);
    frame.arrival_time = Load<double>(body + 32);
    if (!std::isfinite(frame.arrival_time) || frame.arrival_time < 0.0) {
      return util::InvalidArgumentError(
          "request arrival_time is NaN/Inf/negative (request id " +
          std::to_string(frame.request_id) + ")");
    }
    if (frame.byte_end < frame.byte_begin) {
      return util::InvalidArgumentError(
          "request byte range is inverted (request id " + std::to_string(frame.request_id) +
          ": [" + std::to_string(frame.byte_begin) + ", " + std::to_string(frame.byte_end) +
          "])");
    }
    if (frame.byte_end >= trace::kMaxVideoBytes) {
      // A cache holds a video's chunks by chunk number; a far offset would
      // make it size a row for it.
      return util::OutOfRangeError("request byte_end " + std::to_string(frame.byte_end) +
                                   " is past the largest video (request id " +
                                   std::to_string(frame.request_id) + ")");
    }
  } else {
    ResponseFrame& frame = out->response;
    frame.request_id = Load<uint64_t>(body + 0);
    frame.requested_bytes = Load<uint64_t>(body + 8);
    frame.decision = body[16];
    frame.tier = body[17];
    const uint16_t body_reserved = Load<uint16_t>(body + 18);
    if (body_reserved != 0) {
      return util::InvalidArgumentError("nonzero reserved response field " +
                                        std::to_string(body_reserved));
    }
    frame.hit_chunks = Load<uint32_t>(body + 20);
    frame.filled_chunks = Load<uint32_t>(body + 24);
    frame.evicted_chunks = Load<uint32_t>(body + 28);
    if (frame.decision > 2) {
      return util::InvalidArgumentError("unknown response decision " +
                                        std::to_string(frame.decision));
    }
    if (frame.tier > 3) {
      return util::InvalidArgumentError("unknown response tier " + std::to_string(frame.tier));
    }
  }
  return frame_bytes;
}

}  // namespace vcdn::net
