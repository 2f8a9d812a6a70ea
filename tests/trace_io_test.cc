// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/workload_generator.h"

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

TEST(TraceIoCsvTest, RoundTrip) {
  Trace original = SampleTrace();
  std::stringstream stream;
  ASSERT_TRUE(WriteCsv(original, stream).ok());
  auto result = ReadCsv(stream);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Trace& read = result.value();
  ASSERT_EQ(read.requests.size(), original.requests.size());
  EXPECT_DOUBLE_EQ(read.duration, original.duration);
  for (size_t i = 0; i < read.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(read.requests[i].arrival_time, original.requests[i].arrival_time);
    EXPECT_EQ(read.requests[i].video, original.requests[i].video);
    EXPECT_EQ(read.requests[i].byte_begin, original.requests[i].byte_begin);
    EXPECT_EQ(read.requests[i].byte_end, original.requests[i].byte_end);
  }
}

TEST(TraceIoCsvTest, RejectsMissingHeader) {
  std::stringstream stream("1.0,2,3,4\n");
  auto result = ReadCsv(stream);
  EXPECT_FALSE(result.ok());
}

TEST(TraceIoCsvTest, RejectsWrongFieldCount) {
  std::stringstream stream("arrival_time,video,byte_begin,byte_end\n1.0,2,3\n");
  auto result = ReadCsv(stream);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TraceIoCsvTest, RejectsInvertedRange) {
  std::stringstream stream("arrival_time,video,byte_begin,byte_end\n1.0,2,10,5\n");
  auto result = ReadCsv(stream);
  EXPECT_FALSE(result.ok());
}

TEST(TraceIoCsvTest, RejectsOutOfOrderTimes) {
  std::stringstream stream(
      "arrival_time,video,byte_begin,byte_end\n"
      "5.0,1,0,10\n"
      "1.0,1,0,10\n");
  auto result = ReadCsv(stream);
  EXPECT_FALSE(result.ok());
}

TEST(TraceIoTest, GeneratedTraceRoundTripsThroughCsv) {
  WorkloadConfig config;
  config.profile = EuropeProfile(0.02);
  config.profile.base_request_rate = 0.02;
  config.duration_seconds = 86400.0;
  Trace trace = WorkloadGenerator(config).Generate().trace;

  std::stringstream csv;
  ASSERT_TRUE(WriteCsv(trace, csv).ok());
  auto csv_read = ReadCsv(csv);
  ASSERT_TRUE(csv_read.ok());
  EXPECT_EQ(csv_read.value().requests.size(), trace.requests.size());
}

TEST(TraceIoFileTest, MissingFileIsNotFound) {
  auto result = ReadCsvFile("/nonexistent/path/trace.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace vcdn::trace
