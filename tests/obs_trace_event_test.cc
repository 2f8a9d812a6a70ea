// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/obs/trace_event.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "src/obs/metrics.h"

namespace vcdn::obs {
namespace {

// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, literals). The
// tests only need a yes/no answer, not a parse tree.
class JsonValidator {
 public:
  static bool Valid(const std::string& text) {
    JsonValidator v(text);
    v.SkipSpace();
    if (!v.Value()) {
      return false;
    }
    v.SkipSpace();
    return v.pos_ == text.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
      return false;
    }
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) {
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Value() {
    SkipSpace();
    char c = Peek();
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  bool Object() {
    if (!Eat('{')) {
      return false;
    }
    SkipSpace();
    if (Eat('}')) {
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!String()) {
        return false;
      }
      SkipSpace();
      if (!Eat(':') || !Value()) {
        return false;
      }
      SkipSpace();
      if (Eat('}')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }

  bool Array() {
    if (!Eat('[')) {
      return false;
    }
    SkipSpace();
    if (Eat(']')) {
      return true;
    }
    for (;;) {
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (Eat(']')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
      SkipSpace();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, SelfCheck) {
  EXPECT_TRUE(JsonValidator::Valid(R"({"a":[1,2.5,-3e-2],"b":"x\nA","c":null})"));
  EXPECT_FALSE(JsonValidator::Valid(R"({"a":})"));
  EXPECT_FALSE(JsonValidator::Valid("[1,2"));
  EXPECT_FALSE(JsonValidator::Valid("{} extra"));
  EXPECT_FALSE(JsonValidator::Valid("\"raw\ncontrol\""));
}

TEST(TraceEventSinkTest, RecordsSpansAndInstants) {
  TraceEventSink sink;
  {
    ScopedSpan span(&sink, "work", "test");
  }
  sink.AddInstant("marker", "test");
  ASSERT_EQ(sink.num_events(), 2u);
  EXPECT_EQ(sink.events()[0].phase, 'X');
  EXPECT_EQ(sink.events()[0].name, "work");
  EXPECT_GE(sink.events()[0].dur_us, 0.0);
  EXPECT_EQ(sink.events()[1].phase, 'i');
}

TEST(TraceEventSinkTest, NullSinkScopeIsNoOp) {
  // Must not crash; VCDN_OBS_SCOPE accepts a null sink.
  VCDN_OBS_SCOPE(static_cast<TraceEventSink*>(nullptr), "nothing");
}

TEST(TraceEventSinkTest, TraceJsonIsValid) {
  TraceEventSink sink;
  { ScopedSpan span(&sink, "outer"); }
  sink.AddInstant("name with \"quotes\" and \\slashes\\", "cat\negory");
  std::ostringstream out;
  WriteObsJson(out, nullptr, &sink);
  std::string json = out.str();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceEventSinkTest, WriteObsJsonCombinesMetricsAndEvents) {
  MetricsRegistry registry;
  registry.GetCounter("cache.test.filled_chunks_total").Increment(7);
  TraceEventSink sink;
  { ScopedSpan span(&sink, "replay.loop"); }

  std::ostringstream out;
  WriteObsJson(out, &registry, &sink);
  std::string json = out.str();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"cache.test.filled_chunks_total\""), std::string::npos);

  // Null sections degrade to empty, not invalid JSON.
  std::ostringstream none;
  WriteObsJson(none, nullptr, nullptr);
  EXPECT_TRUE(JsonValidator::Valid(none.str())) << none.str();
}

TEST(TraceEventSinkTest, WriteObsJsonFileWritesTheWriteObsJsonDocument) {
  MetricsRegistry registry;
  registry.GetCounter("c_total").Increment(1);
  registry.GetHdrHistogram("latency", 1.0, 1024.0, 4).Observe(2.0);
  TraceEventSink sink;
  sink.AddInstant("marker", "test");
  RunMetadata meta;
  meta.git_describe = "test-deadbeef";
  const std::string path = ::testing::TempDir() + "/obs_trace_event_test.json";
  ASSERT_TRUE(WriteObsJsonFile(path, &registry, &sink, &meta).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::ostringstream expected;
  WriteObsJson(expected, &registry, &sink, &meta);
  EXPECT_EQ(contents, expected.str());
  std::remove(path.c_str());
}

TEST(TraceEventSinkTest, WriteObsJsonFileErrorStatusNamesThePath) {
  MetricsRegistry registry;
  registry.GetCounter("c_total").Increment(1);
  const std::string bad_path = "/nonexistent-dir-for-test/obs.json";
  util::Status status = WriteObsJsonFile(bad_path, &registry, nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(bad_path), std::string::npos)
      << "error must name the path: " << status.message();
}

TEST(MetricsRegistryJsonTest, RegistryJsonIsValid) {
  MetricsRegistry registry;
  registry.GetCounter("a_total").Increment(1);
  registry.GetGauge("weird \"name\"\t").Set(-0.5);
  registry.GetHdrHistogram("h", 1.0, 2.0, 2).Observe(1.0);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_TRUE(JsonValidator::Valid(out.str())) << out.str();
}

}  // namespace
}  // namespace vcdn::obs
