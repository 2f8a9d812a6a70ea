// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Wire-protocol round-trip properties: encode -> decode is the identity for
// randomized frames, a decoder fed one byte at a time reassembles the exact
// same stream (TCP gets to cut frames anywhere), and WireBuffer's grow-once
// bookkeeping holds through compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/net/protocol.h"
#include "src/net/wire_buffer.h"
#include "src/trace/request.h"

namespace vcdn::net {
namespace {

RequestFrame RandomRequest(std::mt19937_64& rng) {
  RequestFrame frame;
  frame.request_id = rng();
  frame.video = rng();
  // Any range that ends inside the largest video.
  frame.byte_begin = rng() % (trace::kMaxVideoBytes - (1ull << 30));
  frame.byte_end = frame.byte_begin + rng() % (1ull << 30);
  frame.arrival_time = static_cast<double>(rng() % 1000000) / 1000.0;
  return frame;
}

ResponseFrame RandomResponse(std::mt19937_64& rng) {
  ResponseFrame frame;
  frame.request_id = rng();
  frame.requested_bytes = rng() % (1ull << 40);
  frame.decision = static_cast<uint8_t>(rng() % 3);
  frame.tier = static_cast<uint8_t>(rng() % 4);
  frame.hit_chunks = static_cast<uint32_t>(rng());
  frame.filled_chunks = static_cast<uint32_t>(rng());
  frame.evicted_chunks = static_cast<uint32_t>(rng());
  return frame;
}

void ExpectEqual(const RequestFrame& a, const RequestFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.video, b.video);
  EXPECT_EQ(a.byte_begin, b.byte_begin);
  EXPECT_EQ(a.byte_end, b.byte_end);
  EXPECT_EQ(a.arrival_time, b.arrival_time);
}

void ExpectEqual(const ResponseFrame& a, const ResponseFrame& b) {
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_EQ(a.hit_chunks, b.hit_chunks);
  EXPECT_EQ(a.filled_chunks, b.filled_chunks);
  EXPECT_EQ(a.evicted_chunks, b.evicted_chunks);
}

TEST(NetProtocolTest, RequestRoundTripProperty) {
  std::mt19937_64 rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    RequestFrame frame = RandomRequest(rng);
    WireBuffer buf;
    AppendRequest(buf, frame);
    ASSERT_EQ(buf.ReadableBytes(), kRequestFrameBytes);
    DecodedFrame decoded;
    util::Result<size_t> n = DecodeFrame(buf, &decoded);
    ASSERT_TRUE(n.ok()) << n.status().message();
    ASSERT_EQ(n.value(), kRequestFrameBytes);
    ASSERT_EQ(decoded.type, FrameType::kRequest);
    ExpectEqual(decoded.request, frame);
  }
}

TEST(NetProtocolTest, ResponseRoundTripProperty) {
  std::mt19937_64 rng(8082026);
  for (int i = 0; i < 2000; ++i) {
    ResponseFrame frame = RandomResponse(rng);
    WireBuffer buf;
    AppendResponse(buf, frame);
    ASSERT_EQ(buf.ReadableBytes(), kResponseFrameBytes);
    DecodedFrame decoded;
    util::Result<size_t> n = DecodeFrame(buf, &decoded);
    ASSERT_TRUE(n.ok()) << n.status().message();
    ASSERT_EQ(n.value(), kResponseFrameBytes);
    ASSERT_EQ(decoded.type, FrameType::kResponse);
    ExpectEqual(decoded.response, frame);
  }
}

// TCP may deliver a frame in any fragmentation; the streaming decoder must
// reassemble the identical sequence when fed one byte at a time.
TEST(NetProtocolTest, ByteAtATimeReassembly) {
  std::mt19937_64 rng(42);
  std::vector<RequestFrame> requests;
  std::vector<ResponseFrame> responses;
  WireBuffer encoded;
  for (int i = 0; i < 50; ++i) {
    if (rng() % 2 == 0) {
      requests.push_back(RandomRequest(rng));
      AppendRequest(encoded, requests.back());
    } else {
      responses.push_back(RandomResponse(rng));
      AppendResponse(encoded, responses.back());
    }
  }

  WireBuffer stream;
  size_t next_request = 0;
  size_t next_response = 0;
  DecodedFrame decoded;
  for (size_t i = 0; i < encoded.ReadableBytes(); ++i) {
    stream.Append(encoded.ReadPtr() + i, 1);
    for (;;) {
      util::Result<size_t> n = DecodeFrame(stream, &decoded);
      ASSERT_TRUE(n.ok()) << n.status().message();
      if (n.value() == 0) {
        break;
      }
      if (decoded.type == FrameType::kRequest) {
        ASSERT_LT(next_request, requests.size());
        ExpectEqual(decoded.request, requests[next_request++]);
      } else {
        ASSERT_LT(next_response, responses.size());
        ExpectEqual(decoded.response, responses[next_response++]);
      }
    }
  }
  EXPECT_EQ(next_request, requests.size());
  EXPECT_EQ(next_response, responses.size());
  EXPECT_TRUE(stream.empty());
}

// Random split points (not just single bytes): chop the stream into chunks
// of random sizes and decode chunk by chunk.
TEST(NetProtocolTest, RandomSplitReassembly) {
  std::mt19937_64 rng(7);
  std::vector<RequestFrame> frames;
  WireBuffer encoded;
  for (int i = 0; i < 200; ++i) {
    frames.push_back(RandomRequest(rng));
    AppendRequest(encoded, frames.back());
  }
  WireBuffer stream;
  size_t offset = 0;
  size_t next = 0;
  DecodedFrame decoded;
  while (offset < encoded.ReadableBytes()) {
    const size_t chunk = std::min<size_t>(1 + rng() % 97, encoded.ReadableBytes() - offset);
    stream.Append(encoded.ReadPtr() + offset, chunk);
    offset += chunk;
    for (;;) {
      util::Result<size_t> n = DecodeFrame(stream, &decoded);
      ASSERT_TRUE(n.ok()) << n.status().message();
      if (n.value() == 0) {
        break;
      }
      ASSERT_LT(next, frames.size());
      ExpectEqual(decoded.request, frames[next++]);
    }
  }
  EXPECT_EQ(next, frames.size());
}

TEST(NetProtocolTest, WireBufferGrowOnce) {
  WireBuffer buf(64);
  const size_t initial = buf.capacity();
  EXPECT_EQ(initial, 64u);
  // A steady produce/consume cycle within capacity never grows the buffer.
  std::vector<uint8_t> chunk(48, 0xAB);
  for (int i = 0; i < 1000; ++i) {
    buf.Append(chunk.data(), chunk.size());
    buf.ConsumeRead(chunk.size());
  }
  EXPECT_EQ(buf.capacity(), initial);

  // Partial consumption forces compaction, still without growth while the
  // working set fits.
  buf.Append(chunk.data(), 32);
  buf.ConsumeRead(16);
  buf.Append(chunk.data(), 40);  // 16 unread + 40 new = 56 <= 64
  EXPECT_EQ(buf.capacity(), initial);
  EXPECT_EQ(buf.ReadableBytes(), 56u);
  buf.ConsumeRead(56);
  EXPECT_TRUE(buf.empty());
}

TEST(NetProtocolTest, WireBufferCompactPreservesBytes) {
  WireBuffer buf(32);
  uint8_t data[24];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  buf.Append(data, sizeof(data));
  buf.ConsumeRead(10);
  buf.Compact();
  ASSERT_EQ(buf.ReadableBytes(), 14u);
  for (size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(buf.ReadPtr()[i], static_cast<uint8_t>(i + 10));
  }
}

}  // namespace
}  // namespace vcdn::net
