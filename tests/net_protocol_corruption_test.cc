// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Hardened-parse regression tests for the wire protocol, the network
// counterpart of trace_corruption_test: every corruption is rejected with
// the right typed Status BEFORE any body interpretation, oversized length
// prefixes are refused before the body is waited for, and truncation is
// distinguished from corruption (truncated = wait, corrupt = drop).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/net/protocol.h"
#include "src/net/wire_buffer.h"
#include "src/trace/request.h"
#include "src/util/status.h"

namespace vcdn::net {
namespace {

std::vector<uint8_t> EncodedRequest() {
  RequestFrame frame;
  frame.request_id = 7;
  frame.video = 42;
  frame.byte_begin = 1024;
  frame.byte_end = 2047;
  frame.arrival_time = 12.5;
  WireBuffer buf;
  AppendRequest(buf, frame);
  return std::vector<uint8_t>(buf.ReadPtr(), buf.ReadPtr() + buf.ReadableBytes());
}

std::vector<uint8_t> EncodedResponse() {
  ResponseFrame frame;
  frame.request_id = 7;
  frame.requested_bytes = 1024;
  frame.decision = 0;
  frame.tier = 1;
  frame.hit_chunks = 3;
  frame.filled_chunks = 1;
  frame.evicted_chunks = 0;
  WireBuffer buf;
  AppendResponse(buf, frame);
  return std::vector<uint8_t>(buf.ReadPtr(), buf.ReadPtr() + buf.ReadableBytes());
}

util::Status DecodeStatus(const std::vector<uint8_t>& bytes) {
  DecodedFrame decoded;
  return DecodeFrame(bytes.data(), bytes.size(), &decoded).status();
}

TEST(NetProtocolCorruptionTest, TruncationWaitsInsteadOfRejecting) {
  const std::vector<uint8_t> frame = EncodedRequest();
  DecodedFrame decoded;
  // Every strict prefix -- mid-header and mid-body -- must read as "need
  // more bytes", never as an error.
  for (size_t len = 0; len < frame.size(); ++len) {
    util::Result<size_t> n = DecodeFrame(frame.data(), len, &decoded);
    ASSERT_TRUE(n.ok()) << "prefix length " << len << ": " << n.status().message();
    EXPECT_EQ(n.value(), 0u) << "prefix length " << len;
  }
  util::Result<size_t> full = DecodeFrame(frame.data(), frame.size(), &decoded);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), frame.size());
}

TEST(NetProtocolCorruptionTest, BadMagicIsDataLoss) {
  std::vector<uint8_t> frame = EncodedRequest();
  frame[0] ^= 0xFF;
  util::Status status = DecodeStatus(frame);
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(NetProtocolCorruptionTest, UnknownVersionIsUnimplemented) {
  std::vector<uint8_t> frame = EncodedRequest();
  frame[4] = static_cast<uint8_t>(kProtocolVersion + 1);
  util::Status status = DecodeStatus(frame);
  EXPECT_EQ(status.code(), util::StatusCode::kUnimplemented);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(NetProtocolCorruptionTest, UnknownFrameTypeIsInvalidArgument) {
  std::vector<uint8_t> frame = EncodedRequest();
  frame[5] = 9;
  EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
}

TEST(NetProtocolCorruptionTest, NonzeroReservedHeaderIsInvalidArgument) {
  std::vector<uint8_t> frame = EncodedRequest();
  frame[6] = 1;
  EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
}

TEST(NetProtocolCorruptionTest, OversizedLengthPrefixRejectedBeforeBody) {
  // Only the 12-byte header is present; the hostile length says 1 GiB. The
  // decoder must reject NOW (kOutOfRange), not wait for a gigabyte.
  std::vector<uint8_t> frame = EncodedRequest();
  frame.resize(kFrameHeaderBytes);
  const uint32_t huge = 1u << 30;
  std::memcpy(frame.data() + 8, &huge, sizeof(huge));
  util::Status status = DecodeStatus(frame);
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("cap"), std::string::npos);
}

TEST(NetProtocolCorruptionTest, WrongBodyLengthForTypeIsDataLoss) {
  std::vector<uint8_t> frame = EncodedRequest();
  // Under the cap but wrong for a request frame.
  const uint32_t wrong = static_cast<uint32_t>(kRequestBodyBytes + 8);
  std::memcpy(frame.data() + 8, &wrong, sizeof(wrong));
  EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kDataLoss);
}

TEST(NetProtocolCorruptionTest, NanArrivalTimeIsInvalidArgument) {
  std::vector<uint8_t> frame = EncodedRequest();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(frame.data() + kFrameHeaderBytes + 32, &nan, sizeof(nan));
  util::Status status = DecodeStatus(frame);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("arrival_time"), std::string::npos);
}

TEST(NetProtocolCorruptionTest, InfiniteAndNegativeArrivalTimesRejected) {
  for (double bad : {std::numeric_limits<double>::infinity(), -1.0}) {
    std::vector<uint8_t> frame = EncodedRequest();
    std::memcpy(frame.data() + kFrameHeaderBytes + 32, &bad, sizeof(bad));
    EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(NetProtocolCorruptionTest, InvertedByteRangeIsInvalidArgument) {
  std::vector<uint8_t> frame = EncodedRequest();
  const uint64_t begin = 5000;
  const uint64_t end = 4999;
  std::memcpy(frame.data() + kFrameHeaderBytes + 16, &begin, sizeof(begin));
  std::memcpy(frame.data() + kFrameHeaderBytes + 24, &end, sizeof(end));
  util::Status status = DecodeStatus(frame);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("inverted"), std::string::npos);
}

// A cache holds a video's chunks by chunk number, so a request must end
// inside the largest video: chunk 2^31 - 1 or 2^31 of 2 MiB, the first byte
// past trace::kMaxVideoBytes and the largest offset are all refused.
TEST(NetProtocolCorruptionTest, ByteRangePastTheLargestVideoIsOutOfRange) {
  constexpr uint64_t kChunk = 2ull << 20;
  for (uint64_t end : {((uint64_t{1} << 31) - 1) * kChunk, (uint64_t{1} << 31) * kChunk,
                       trace::kMaxVideoBytes, std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> frame = EncodedRequest();
    std::memcpy(frame.data() + kFrameHeaderBytes + 24, &end, sizeof(end));
    util::Status status = DecodeStatus(frame);
    EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange) << end;
    EXPECT_NE(status.message().find("largest video"), std::string::npos);
  }
  // The last byte of the largest video is a valid request.
  std::vector<uint8_t> frame = EncodedRequest();
  const uint64_t last = trace::kMaxVideoBytes - 1;
  std::memcpy(frame.data() + kFrameHeaderBytes + 16, &last, sizeof(last));
  std::memcpy(frame.data() + kFrameHeaderBytes + 24, &last, sizeof(last));
  DecodedFrame decoded;
  util::Result<size_t> result = DecodeFrame(frame.data(), frame.size(), &decoded);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(decoded.request.byte_end, last);
}

TEST(NetProtocolCorruptionTest, BadResponseEnumsRejected) {
  {
    std::vector<uint8_t> frame = EncodedResponse();
    frame[kFrameHeaderBytes + 16] = 3;  // decision beyond kUnavailable
    EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
  }
  {
    std::vector<uint8_t> frame = EncodedResponse();
    frame[kFrameHeaderBytes + 17] = 4;  // tier beyond kUnavailable
    EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
  }
  {
    std::vector<uint8_t> frame = EncodedResponse();
    frame[kFrameHeaderBytes + 18] = 1;  // reserved body field
    EXPECT_EQ(DecodeStatus(frame).code(), util::StatusCode::kInvalidArgument);
  }
}

// Corruption in the middle of a pipelined stream: the frames before the
// damage decode fine; the damaged frame kills the stream.
TEST(NetProtocolCorruptionTest, CorruptionAfterValidFramesStopsAtTheDamage) {
  WireBuffer stream;
  const std::vector<uint8_t> good = EncodedRequest();
  stream.Append(good.data(), good.size());
  stream.Append(good.data(), good.size());
  std::vector<uint8_t> bad = EncodedRequest();
  bad[1] ^= 0x40;  // magic damage
  stream.Append(bad.data(), bad.size());

  DecodedFrame decoded;
  ASSERT_TRUE(DecodeFrame(stream, &decoded).ok());
  ASSERT_TRUE(DecodeFrame(stream, &decoded).ok());
  util::Result<size_t> third = DecodeFrame(stream, &decoded);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace vcdn::net
