// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Corruption corpus for the trace I/O layer (CSV and VCDNTRS2): every
// crafted-bad input must come back as a non-OK status -- quickly and without
// absurd allocations -- and never as a quietly wrong Trace.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/trace/trace_file.h"
#include "src/trace/trace_io.h"

namespace vcdn::trace {
namespace {

Trace SampleTrace() {
  Trace t;
  t.duration = 100.0;
  t.requests.push_back(Request{1.5, 42, 0, 1023});
  t.requests.push_back(Request{2.25, 7, 4096, 8191});
  t.requests.push_back(Request{99.0, 42, 0, 0});
  return t;
}

TEST(TraceCorruptionCsvTest, RejectsNanArrivalTimeWithLineNumber) {
  std::stringstream stream(
      "arrival_time,video,byte_begin,byte_end\n"
      "1.0,1,0,10\n"
      "nan,2,0,10\n");
  auto result = ReadCsv(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

TEST(TraceCorruptionCsvTest, RejectsInfiniteArrivalTime) {
  std::stringstream stream(
      "arrival_time,video,byte_begin,byte_end\n"
      "inf,1,0,10\n");
  auto result = ReadCsv(stream);
  EXPECT_FALSE(result.ok());
}

TEST(TraceCorruptionCsvTest, RejectsNonFiniteDurationComment) {
  std::stringstream stream(
      "arrival_time,video,byte_begin,byte_end\n"
      "# duration_seconds=nan\n"
      "1.0,1,0,10\n");
  auto result = ReadCsv(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TraceCorruptionCsvTest, RejectsRangePastTheLargestVideo) {
  std::stringstream stream(
      "arrival_time,video,byte_begin,byte_end\n"
      "1.0,1,0,10\n"
      "2.0,1,0," + std::to_string(kMaxVideoBytes) + "\n");
  auto result = ReadCsv(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

TEST(TraceCorruptionWriterTest, RejectsRangePastTheLargestVideo) {
  Trace t = SampleTrace();
  t.requests[1].byte_end = kMaxVideoBytes;
  EXPECT_FALSE(t.IsWellFormed());
  const std::string path = testing::TempDir() + "past_largest_video.vtrs";
  util::Status status = WriteTraceFile({&t}, path);
  std::remove(path.c_str());
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange) << status.ToString();
}

// --- VCDNTRS2 packed-file corpus --------------------------------------------
//
// MmapTrace::Open takes a path, so each case writes the mutated image to a
// temp file. The error taxonomy under test: structural wrongness (bad magic/
// version/layout constants, non-dense index, count/payload mismatch) ->
// InvalidArgument; truncation and bit-rot (short header/index, NaN/Inf time
// fields, corrupt records) -> DataLoss; missing file -> NotFound.

// VCDNTRS2 FileHeader field offsets (trace_file.cc pins the layout with
// static_asserts; these mirror it for byte-patching).
constexpr size_t kVersionOffset = 8;
constexpr size_t kHeaderBytesOffset = 12;
constexpr size_t kFlagsOffset = 20;
constexpr size_t kServerCountOffset = 24;
constexpr size_t kTotalRecordsOffset = 32;
constexpr size_t kDurationOffset = 40;
constexpr size_t kIndexOffset = 64;
constexpr size_t kIndexEntryBytes = 48;

class PackedCorruptionTest : public ::testing::Test {
 protected:
  // A valid 2-server packed image, built once and mutated per test.
  static std::string ValidImage() {
    Trace a = SampleTrace();
    Trace b;
    b.duration = 50.0;
    b.requests.push_back(Request{0.5, 3, 0, 4095});
    b.requests.push_back(Request{10.0, 9, 100, 200});
    const std::string path = testing::TempDir() + "packed_corruption_valid.vtrs";
    EXPECT_TRUE(WriteTraceFile({&a, &b}, path).ok());
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return bytes;
  }

  util::Result<MmapTrace> OpenImage(const std::string& bytes) {
    const std::string path =
        testing::TempDir() + "packed_corruption_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".vtrs";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto result = MmapTrace::Open(path);
    std::remove(path.c_str());
    return result;
  }

  template <typename T>
  static void Patch(std::string& bytes, size_t offset, T value) {
    ASSERT_LE(offset + sizeof(T), bytes.size());
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
  }
};

TEST_F(PackedCorruptionTest, ValidImageOpens) {
  auto result = OpenImage(ValidImage());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().server_count(), 2u);
  EXPECT_EQ(result.value().total_records(), 5u);
  EXPECT_TRUE(result.value().Validate().ok());
}

TEST_F(PackedCorruptionTest, MissingFileIsNotFound) {
  auto result = MmapTrace::Open(testing::TempDir() + "no_such_trace.vtrs");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST_F(PackedCorruptionTest, TruncatedHeaderIsDataLoss) {
  std::string bytes = ValidImage();
  for (size_t keep : {size_t{0}, size_t{8}, size_t{63}}) {
    auto result = OpenImage(bytes.substr(0, keep));
    ASSERT_FALSE(result.ok()) << "kept " << keep;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss) << "kept " << keep;
  }
}

TEST_F(PackedCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = ValidImage();
  bytes[0] = 'X';
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, WrongVersionIsInvalidArgument) {
  std::string bytes = ValidImage();
  Patch<uint32_t>(bytes, kVersionOffset, 3);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, WrongLayoutConstantIsInvalidArgument) {
  std::string bytes = ValidImage();
  Patch<uint32_t>(bytes, kHeaderBytesOffset, 128);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, UnknownFlagsAreInvalidArgument) {
  std::string bytes = ValidImage();
  Patch<uint32_t>(bytes, kFlagsOffset, 1);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, TruncatedIndexIsDataLoss) {
  // Header claims an absurd server count the file cannot hold; must fail
  // fast without trusting (or allocating for) the count.
  std::string bytes = ValidImage();
  Patch<uint64_t>(bytes, kServerCountOffset, uint64_t{1} << 40);
  const auto start = std::chrono::steady_clock::now();
  auto result = OpenImage(bytes);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  EXPECT_LT(elapsed, 1.0);
}

TEST_F(PackedCorruptionTest, RecordCountBeyondPayloadIsDataLoss) {
  // A 2^40 record count over a 5-record payload must fail fast, without
  // trusting (or allocating for) the count.
  std::string bytes = ValidImage();
  Patch<uint64_t>(bytes, kTotalRecordsOffset, uint64_t{1} << 40);
  const auto start = std::chrono::steady_clock::now();
  auto result = OpenImage(bytes);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  EXPECT_LT(elapsed, 1.0);
}

TEST_F(PackedCorruptionTest, TrailingPayloadBytesAreInvalidArgument) {
  // Count/payload mismatch in the other direction: payload longer than the
  // records the header accounts for.
  std::string bytes = ValidImage() + std::string(8, '\0');
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("count/payload mismatch"), std::string::npos)
      << result.status().ToString();
}

TEST_F(PackedCorruptionTest, TruncatedPayloadIsDataLoss) {
  std::string bytes = ValidImage();
  auto result = OpenImage(bytes.substr(0, bytes.size() - 16));  // cut mid-record
  ASSERT_FALSE(result.ok());
  // 4.5 records cannot satisfy the header's 5: the count now exceeds the
  // payload -> truncation, not a structural layout bug.
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(PackedCorruptionTest, OutOfOrderIndexIsInvalidArgument) {
  // Entry 1's record_offset rewound before entry 0's section: the index is
  // no longer dense and in file order.
  std::string bytes = ValidImage();
  Patch<uint64_t>(bytes, kIndexOffset + kIndexEntryBytes + 0, 0);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, IndexCountSumMismatchIsInvalidArgument) {
  // Shrink entry 1's record_count: the per-server counts no longer sum to
  // the header total.
  std::string bytes = ValidImage();
  Patch<uint64_t>(bytes, kIndexOffset + kIndexEntryBytes + 8, 1);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, NonFiniteHeaderDurationIsDataLoss) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -1.0}) {
    std::string bytes = ValidImage();
    Patch<double>(bytes, kDurationOffset, bad);
    auto result = OpenImage(bytes);
    ASSERT_FALSE(result.ok()) << "duration=" << bad;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss) << "duration=" << bad;
  }
}

TEST_F(PackedCorruptionTest, NonFiniteIndexTimeIsDataLoss) {
  // min_time of entry 0 (offset 24 into the entry) NaN, then Inf.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::string bytes = ValidImage();
    Patch<double>(bytes, kIndexOffset + 24, bad);
    auto result = OpenImage(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }
}

TEST_F(PackedCorruptionTest, InvertedIndexTimeRangeIsInvalidArgument) {
  // min_time > max_time in entry 0.
  std::string bytes = ValidImage();
  Patch<double>(bytes, kIndexOffset + 24, 99.5);
  auto result = OpenImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(PackedCorruptionTest, CorruptRecordFailsValidateAndEndsTheStream) {
  // NaN arrival time in the first record of server 0. Open() succeeds (the
  // header and index are fine); the rot surfaces in Validate() and as a
  // non-OK stream status, never as garbage requests.
  std::string bytes = ValidImage();
  const size_t payload = kIndexOffset + 2 * kIndexEntryBytes;
  Patch<double>(bytes, payload, std::numeric_limits<double>::quiet_NaN());
  auto result = OpenImage(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto scanned = result.value().Validate();
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), util::StatusCode::kDataLoss);

  auto stream = result.value().ServerStream(0);
  EXPECT_TRUE(stream->Next(16).empty());  // first record is already bad
  EXPECT_EQ(stream->status().code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(stream->Next(16).empty());  // stream has ended permanently
}

TEST_F(PackedCorruptionTest, InvertedByteRangeFailsValidateAndEndsTheStream) {
  // byte_begin past byte_end in the first record of server 0 (SampleTrace's
  // 0..1023): Open() succeeds, the range is rejected by Validate() and ends
  // the stream before any request is served.
  std::string bytes = ValidImage();
  const size_t payload = kIndexOffset + 2 * kIndexEntryBytes;
  Patch<uint64_t>(bytes, payload + offsetof(Request, byte_begin), 5000);
  auto result = OpenImage(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto scanned = result.value().Validate();
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), util::StatusCode::kDataLoss);

  auto stream = result.value().ServerStream(0);
  EXPECT_TRUE(stream->Next(16).empty());
  EXPECT_EQ(stream->status().code(), util::StatusCode::kDataLoss);
  EXPECT_TRUE(stream->Next(16).empty());
}

TEST_F(PackedCorruptionTest, RangePastTheLargestVideoFailsValidateAndEndsTheStream) {
  // The 2nd record of server 0 ends at kMaxVideoBytes: the stream serves the
  // record before it, then reports DataLoss; Validate() refuses the file.
  std::string bytes = ValidImage();
  const size_t payload = kIndexOffset + 2 * kIndexEntryBytes;
  Patch<uint64_t>(bytes, payload + sizeof(Request) + offsetof(Request, byte_end), kMaxVideoBytes);
  auto result = OpenImage(bytes);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto scanned = result.value().Validate();
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().code(), util::StatusCode::kDataLoss);

  auto stream = result.value().ServerStream(0);
  EXPECT_EQ(stream->Next(16).count, 1u);
  EXPECT_TRUE(stream->Next(16).empty());
  EXPECT_EQ(stream->status().code(), util::StatusCode::kDataLoss);
}

TEST_F(PackedCorruptionTest, OutOfOrderRecordEndsTheStreamMidway) {
  // Rewind the 3rd record of server 0 (SampleTrace arrivals 1.5/2.25/99.0)
  // to before its predecessor: the stream serves the 2 good records, then
  // reports DataLoss.
  std::string bytes = ValidImage();
  const size_t payload = kIndexOffset + 2 * kIndexEntryBytes;
  Patch<double>(bytes, payload + 2 * sizeof(Request), 0.25);
  auto result = OpenImage(bytes);
  ASSERT_TRUE(result.ok());
  auto stream = result.value().ServerStream(0);
  size_t served = 0;
  for (;;) {
    RequestSpan span = stream->Next(16);
    if (span.empty()) {
      break;
    }
    served += span.count;
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(stream->status().code(), util::StatusCode::kDataLoss);
  EXPECT_FALSE(result.value().Validate().ok());
}

}  // namespace
}  // namespace vcdn::trace
