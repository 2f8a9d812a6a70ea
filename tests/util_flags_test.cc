// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The contract of util::Flags, the one command-line parser: a declared flag
// parses into its destination; an undeclared flag, a missing value, a stray
// positional argument or a value out of range fails the parse naming it,
// and leaves the destination as it was.

#include "src/util/flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace vcdn::util {
namespace {

// Parses `args` as argv[1..] of a program.
Status Parse(const Flags& flags, const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"program_under_test"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

// The parse's error message ("" when it succeeds).
std::string Error(const Flags& flags, const std::vector<std::string>& args) {
  return Parse(flags, args).message();
}

enum class Color { kRed, kGreen };
std::string_view ColorName(Color color) { return color == Color::kRed ? "red" : "green"; }

TEST(FlagsTest, ParsesEveryKindOfFlag) {
  uint64_t count = 0;
  double number = 0.0;
  std::string choice;
  Color color = Color::kRed;
  std::string text;
  bool on = false;
  Flags flags;
  flags.Count("--count", &count);
  flags.Number("--number", &number);
  flags.OneOf("--choice", &choice, {"six", "europe"});
  flags.OneOf("--color", &color, {Color::kRed, Color::kGreen}, ColorName);
  flags.Text("--text", &text);
  flags.Switch("--on", &on);
  ASSERT_TRUE(Parse(flags, {"--count", "18446744073709551615", "--number", "0.25", "--choice",
                            "europe", "--color", "green", "--text", "/tmp/x y", "--on"})
                  .ok());
  EXPECT_EQ(count, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(number, 0.25);
  EXPECT_EQ(choice, "europe");
  EXPECT_EQ(color, Color::kGreen);
  EXPECT_EQ(text, "/tmp/x y");
  EXPECT_TRUE(on);
}

TEST(FlagsTest, AbsentFlagsKeepTheirDefaults) {
  uint64_t threads = 7;
  bool verify = false;
  Flags flags;
  flags.Count("--threads", &threads);
  flags.Switch("--verify", &verify);
  ASSERT_TRUE(Parse(flags, {}).ok());
  EXPECT_EQ(threads, 7u);
  EXPECT_FALSE(verify);
}

TEST(FlagsTest, UnknownFlagNamesTheOffender) {
  uint64_t threads = 0;
  Flags flags;
  flags.Count("--threads", &threads);
  const Status status = Parse(flags, {"--thread", "8"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "unknown flag '--thread'");
  // A flag another program reads is unknown to one that does not declare it.
  EXPECT_EQ(Error(flags, {"--out", "/tmp/x.json"}), "unknown flag '--out'");
  EXPECT_EQ(Error(Flags(), {"-h"}), "unknown flag '-h'");
}

TEST(FlagsTest, MissingValueFails) {
  uint64_t threads = 0;
  double scale = 0.1;
  Flags flags;
  flags.Count("--threads", &threads);
  flags.Number("--scale", &scale);
  EXPECT_EQ(Error(flags, {"--threads"}), "flag '--threads' is missing its value");
  EXPECT_EQ(Error(flags, {"--scale", "1", "--threads"}), "flag '--threads' is missing its value");
}

TEST(FlagsTest, PositionalArgumentFails) {
  bool verify = false;
  Flags flags;
  flags.Switch("--verify", &verify);
  EXPECT_EQ(Error(flags, {"traces.bin"}), "unexpected positional argument 'traces.bin'");
  // A switch takes no value, so what follows it is an argument of its own.
  EXPECT_EQ(Error(flags, {"--verify", "1"}), "unexpected positional argument '1'");
}

TEST(FlagsTest, CountsOutOfRangeFailNamingTheRange) {
  uint64_t repeat = 1;
  uint64_t flight = 0;
  uint64_t port = 0;
  uint64_t clock = 0;
  Flags flags;
  flags.Count("--repeat", &repeat, /*min=*/1);
  flags.Count("--flight", &flight);
  flags.Count("--port", &port, 0, 65535);
  flags.Count("--clock", &clock, 2, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(Error(flags, {"--repeat", "three"}),
            "invalid value 'three' for flag '--repeat' (need a positive integer)");
  EXPECT_EQ(Error(flags, {"--repeat", "0"}),
            "invalid value '0' for flag '--repeat' (need a positive integer)");
  EXPECT_EQ(Error(flags, {"--flight", "-1"}),
            "invalid value '-1' for flag '--flight' (need an unsigned integer)");
  EXPECT_EQ(Error(flags, {"--flight", "1.5"}),
            "invalid value '1.5' for flag '--flight' (need an unsigned integer)");
  EXPECT_EQ(Error(flags, {"--port", "65536"}),
            "invalid value '65536' for flag '--port' (need an integer in [0, 65535])");
  EXPECT_EQ(Error(flags, {"--clock", "1"}),
            "invalid value '1' for flag '--clock' (need an integer >= 2)");
  EXPECT_EQ(repeat, 1u);  // a failed parse leaves the value as it was
  ASSERT_TRUE(Parse(flags, {"--port", "65535", "--repeat", "2"}).ok());
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(repeat, 2u);
}

TEST(FlagsTest, NumbersMustBeFiniteAndPositive) {
  double days = 7.0;
  double scale = 0.1;
  Flags flags;
  flags.Number("--days", &days);
  flags.Number("--scale", &scale, /*max=*/4.0);
  // A silently corrected value produces numbers for the wrong workload.
  for (const char* bad : {"zero", "0", "-1", "nan", "inf", "1e999", ""}) {
    EXPECT_EQ(Error(flags, {"--days", bad}), std::string("invalid value '") + bad +
                                                 "' for flag '--days' (need a positive number)");
  }
  EXPECT_EQ(Error(flags, {"--scale", "5"}),
            "invalid value '5' for flag '--scale' (need a number in (0, 4])");
  EXPECT_DOUBLE_EQ(days, 7.0);
  ASSERT_TRUE(Parse(flags, {"--scale", "4", "--days", "1e-3"}).ok());
  EXPECT_DOUBLE_EQ(scale, 4.0);
  EXPECT_DOUBLE_EQ(days, 1e-3);
}

TEST(FlagsTest, OneOfListsTheChoices) {
  Color color = Color::kRed;
  Flags flags;
  flags.OneOf("--color", &color, {Color::kRed, Color::kGreen}, ColorName);
  EXPECT_EQ(Error(flags, {"--color", "blue"}),
            "invalid value 'blue' for flag '--color' (need one of red|green)");
  EXPECT_EQ(Error(flags, {"--color", "Red"}),
            "invalid value 'Red' for flag '--color' (need one of red|green)");
  EXPECT_EQ(color, Color::kRed);
}

TEST(FlagsTest, TheFirstErrorStopsTheParse) {
  uint64_t seed = 1;
  Flags flags;
  flags.Count("--seed", &seed);
  EXPECT_EQ(Error(flags, {"--bogus", "--seed", "x"}), "unknown flag '--bogus'");
}

// Sets `name` for the lifetime of the object.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    EXPECT_EQ(setenv(name, value, 1), 0);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(FlagsTest, EnvironmentVariablesParseLikeFlags) {
  uint64_t seed = 1;
  double days = 30.0;
  Flags env;
  env.Count("VCDN_FLAGS_TEST_SEED", &seed);
  env.Number("VCDN_FLAGS_TEST_DAYS", &days);
  {
    ScopedEnv set_seed("VCDN_FLAGS_TEST_SEED", "0");
    ASSERT_TRUE(env.ParseEnvironment().ok());
    EXPECT_EQ(seed, 0u);
    EXPECT_DOUBLE_EQ(days, 30.0);  // unset: kept
  }
  ScopedEnv bad_days("VCDN_FLAGS_TEST_DAYS", "abc");
  EXPECT_EQ(env.ParseEnvironment().message(),
            "invalid value 'abc' for VCDN_FLAGS_TEST_DAYS (need a positive number)");
}

TEST(FlagsTest, UsageErrorsExitTwo) {
  ExitOnUsageError(OkStatus());  // returns
  EXPECT_EXIT(ExitOnUsageError(InvalidArgumentError("unknown flag '--x'")),
              testing::ExitedWithCode(2), "error: unknown flag '--x'");
}

}  // namespace
}  // namespace vcdn::util
