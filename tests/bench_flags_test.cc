// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fail-fast contract of bench::ParseBenchFlags and the bench environment: a
// typoed flag, a shared flag the bench does not read, a missing value, an
// out-of-range value or a stray positional argument must exit(2) naming the
// offender on stderr -- never silently run the default configuration (that
// is how wrong bench numbers get committed). Death tests, since the
// contract IS the exit. The parser itself is util::Flags
// (tests/util_flags_test.cc).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace vcdn::bench {
namespace {

constexpr unsigned kAll = kThreads | kRepeat | kScale | kObs;

// argv helper: gtest death tests re-exec the statement in a child, so
// building argv inline per call keeps each case self-contained.
BenchFlags Parse(std::vector<std::string> args, unsigned reads = kAll, util::Flags own = {}) {
  std::vector<char*> argv;
  static std::string prog = "bench_under_test";
  argv.push_back(prog.data());
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseBenchFlags(static_cast<int>(argv.size()), argv.data(), reads, std::move(own));
}

TEST(BenchFlagsTest, ParsesTheSharedFlags) {
  BenchFlags flags = Parse({"--threads", "8", "--repeat", "3"});
  EXPECT_EQ(flags.threads, 8u);
  EXPECT_EQ(flags.repeat, 3u);
}

TEST(BenchFlagsTest, ObsFlagsAreParsedForBenchObs) {
  BenchFlags flags = Parse({"--obs-json", "/tmp/x.json", "--obs-series", "/tmp/x.jsonl",
                            "--flight", "4096", "--post-mortem", "/tmp/pm.jsonl"});
  EXPECT_EQ(flags.threads, 0u);  // defaults untouched
  EXPECT_EQ(flags.obs_json, "/tmp/x.json");
  EXPECT_EQ(flags.obs_series, "/tmp/x.jsonl");
  EXPECT_EQ(flags.flight, 4096u);
  EXPECT_EQ(flags.post_mortem, "/tmp/pm.jsonl");
  BenchObs obs(flags);
  EXPECT_TRUE(obs.enabled() && obs.series_enabled() && obs.flight_enabled());
  EXPECT_FALSE(BenchObs(BenchFlags{}).any_enabled());
}

TEST(BenchFlagsTest, OwnValueFlagsAreAccepted) {
  std::string out;
  util::Flags own;
  own.Text("--out", &out);
  BenchFlags flags = Parse({"--out", "/tmp/bench.json", "--threads", "2"}, kAll, std::move(own));
  EXPECT_EQ(flags.threads, 2u);
  EXPECT_EQ(out, "/tmp/bench.json");
}

TEST(BenchFlagsTest, UnknownFlagExitsNamingTheOffender) {
  EXPECT_EXIT(Parse({"--thread", "8"}), testing::ExitedWithCode(2),
              "error: unknown flag '--thread'");
}

TEST(BenchFlagsTest, ExtraFlagOfAnotherBenchIsStillUnknownHere) {
  // --out is only valid for benches that declare it.
  EXPECT_EXIT(Parse({"--out", "/tmp/x.json"}), testing::ExitedWithCode(2),
              "unknown flag '--out'");
}

TEST(BenchFlagsTest, SharedFlagTheBenchDoesNotReadExits) {
  // Accepting and ignoring it would report a run that never happened, e.g.
  // "--obs-json x" on a bench that writes no dump.
  EXPECT_EXIT(Parse({"--repeat", "2"}, kScale | kObs), testing::ExitedWithCode(2),
              "unknown flag '--repeat'");
  EXPECT_EXIT(Parse({"--obs-json", "x"}, kThreads | kScale), testing::ExitedWithCode(2),
              "unknown flag '--obs-json'");
  EXPECT_EXIT(Parse({"--scale", "0.5"}, kThreads), testing::ExitedWithCode(2),
              "unknown flag '--scale'");
}

TEST(BenchFlagsTest, MissingValueExits) {
  EXPECT_EXIT(Parse({"--threads"}), testing::ExitedWithCode(2), "missing its value");
}

TEST(BenchFlagsTest, UnparsableCountExits) {
  EXPECT_EXIT(Parse({"--repeat", "three"}), testing::ExitedWithCode(2),
              "invalid value 'three' for flag '--repeat'");
  EXPECT_EXIT(Parse({"--flight", "-1"}), testing::ExitedWithCode(2),
              "invalid value '-1' for flag '--flight'");
}

TEST(BenchFlagsTest, PositionalArgumentExits) {
  EXPECT_EXIT(Parse({"traces.bin"}), testing::ExitedWithCode(2),
              "unexpected positional argument 'traces.bin'");
}

TEST(BenchFlagsTest, ZeroRepeatOrFlightCapacityExits) {
  // Neither runs a default in its place: "--repeat 0" would run once, and
  // "--flight 0" would record nothing and write no post-mortem.
  EXPECT_EXIT(Parse({"--repeat", "0"}), testing::ExitedWithCode(2),
              "invalid value '0' for flag '--repeat' \\(need a positive integer\\)");
  EXPECT_EXIT(Parse({"--flight", "0", "--post-mortem", "/tmp/pm.jsonl"}),
              testing::ExitedWithCode(2),
              "invalid value '0' for flag '--flight' \\(need a positive integer\\)");
}

// --- --scale: first-class workload-scale flag ------------------------------

TEST(BenchScaleFlagTest, ScaleFlagParses) {
  EXPECT_DOUBLE_EQ(Parse({"--scale", "0.5"}).scale, 0.5);
  EXPECT_DOUBLE_EQ(Parse({}).scale, 0.0);  // 0 = "not given"
}

TEST(BenchScaleFlagTest, BadScaleValuesExit) {
  // A scale that isn't in (0, 4] must exit(2), not clamp or abort: a
  // silently-corrected scale produces numbers for the wrong workload, and
  // the profiles CHECK their scale.
  for (const char* bad : {"zero", "0", "-1", "nan", "inf", "5"}) {
    EXPECT_EXIT(Parse({"--scale", bad}), testing::ExitedWithCode(2),
                std::string("invalid value '") + bad + "' for flag '--scale'");
  }
}

TEST(BenchScaleFlagTest, FlagWinsOverEnv) {
  // VCDN_BENCH_SCALE stays honored (CI lanes set it), but an explicit
  // --scale on the command line overrides it.
  ASSERT_EQ(setenv("VCDN_BENCH_SCALE", "0.1", 1), 0);
  BenchFlags with_flag = Parse({"--scale", "0.75"});
  EXPECT_DOUBLE_EQ(ResolveScale(with_flag).workload_scale, 0.75);
  BenchFlags without_flag = Parse({});
  EXPECT_DOUBLE_EQ(ResolveScale(without_flag).workload_scale, 0.1);
  ASSERT_EQ(unsetenv("VCDN_BENCH_SCALE"), 0);
}

TEST(BenchScaleFlagTest, DefaultScaleWithoutFlagOrEnv) {
  ASSERT_EQ(unsetenv("VCDN_BENCH_SCALE"), 0);
  BenchScale scale = ResolveScale(Parse({}));
  EXPECT_GT(scale.workload_scale, 0.0);
  EXPECT_EQ(scale.workload_scale, ScaleFromEnv().workload_scale);
}

// --- environment settings and bench-specific flags -------------------------
// Each is parsed once and, like the shared flags, exits 2 naming the input
// when it does not parse.

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

TEST(BenchEnvTest, SeedIsAnyUint64IncludingZero) {
  {
    ScopedEnv seed("VCDN_BENCH_SEED", "0");
    EXPECT_EQ(ScaleFromEnv().seed, 0u);
  }
  {
    // Above 2^53, where a double would round it.
    ScopedEnv seed("VCDN_BENCH_SEED", "18446744073709551615");
    EXPECT_EQ(ScaleFromEnv().seed, 18446744073709551615ull);
  }
  EXPECT_EQ(ScaleFromEnv().seed, 1u);  // unset: the default
}

TEST(BenchEnvTest, InvalidScaleSettingsExit) {
  const std::pair<const char*, const char*> bad[] = {
      {"VCDN_BENCH_SEED", "1.5"},      {"VCDN_BENCH_SEED", "-1"},
      {"VCDN_BENCH_DAYS", "abc"},      {"VCDN_BENCH_DAYS", "0"},
      {"VCDN_BENCH_SCALE", "nan"},     {"VCDN_BENCH_SCALE", "5"},
      {"VCDN_BENCH_DISK_SCALE", "-4096"},
  };
  for (const auto& [name, value] : bad) {
    EXPECT_EXIT(
        {
          ScopedEnv env(name, value);
          ScaleFromEnv();
        },
        testing::ExitedWithCode(2),
        std::string("error: invalid value '") + value + "' for " + name);
  }
}

TEST(BenchEnvTest, Fig2SizesParseOrExit) {
  {
    ScopedEnv files("VCDN_FIG2_FILES", "100");
    ScopedEnv requests("VCDN_FIG2_REQUESTS", "0");  // 0 = uncapped
    EXPECT_EQ(EnvCount("VCDN_FIG2_FILES", 40, 1), 100u);
    EXPECT_EQ(EnvCount("VCDN_FIG2_REQUESTS", 160), 0u);
  }
  EXPECT_EQ(EnvCount("VCDN_FIG2_FILES", 40, 1), 40u);  // unset: the fallback
  EXPECT_EXIT(
      {
        ScopedEnv files("VCDN_FIG2_FILES", "x");
        EnvCount("VCDN_FIG2_FILES", 40, 1);
      },
      testing::ExitedWithCode(2), "invalid value 'x' for VCDN_FIG2_FILES");
  EXPECT_EXIT(
      {
        ScopedEnv files("VCDN_FIG2_FILES", "0");
        EnvCount("VCDN_FIG2_FILES", 40, 1);
      },
      testing::ExitedWithCode(2), "invalid value '0' for VCDN_FIG2_FILES");
  EXPECT_EXIT(
      {
        ScopedEnv requests("VCDN_FIG2_REQUESTS", "160k");
        EnvCount("VCDN_FIG2_REQUESTS", 160);
      },
      testing::ExitedWithCode(2), "invalid value '160k' for VCDN_FIG2_REQUESTS");
}

// bench_fleet_scaling's own flag, declared beside the shared ones it reads.
uint64_t MaxThreads(std::vector<std::string> args) {
  uint64_t max_threads = 8;
  util::Flags own;
  own.Count("--max-threads", &max_threads, /*min=*/1);
  Parse(std::move(args), kRepeat | kScale | kObs, std::move(own));
  return max_threads;
}

TEST(BenchFlagsTest, MaxThreadsParsesOrExits) {
  EXPECT_EQ(MaxThreads({"--max-threads", "3", "--repeat", "2"}), 3u);
  EXPECT_EQ(MaxThreads({"--repeat", "2"}), 8u);  // absent: the fallback
  EXPECT_EXIT(MaxThreads({"--max-threads", "abc"}), testing::ExitedWithCode(2),
              "invalid value 'abc' for flag '--max-threads'");
  EXPECT_EXIT(MaxThreads({"--max-threads", "0"}), testing::ExitedWithCode(2),
              "invalid value '0' for flag '--max-threads'");
}

TEST(BenchFlagsTest, BannerNamesOnlyTheVariablesTheBenchReads) {
  BenchScale scale;
  EXPECT_EQ(ScaleBanner(scale),
            "Scale: workload x0.25, 30 days, 4096 chunks per paper-TB, seed 1\n"
            "       (set VCDN_BENCH_SCALE / VCDN_BENCH_DAYS / VCDN_BENCH_DISK_SCALE /\n"
            "        VCDN_BENCH_SEED to change)\n");
  scale.fixed_scale = true;
  EXPECT_EQ(ScaleBanner(scale),
            "Scale: workload x0.25, 30 days, 4096 chunks per paper-TB, seed 1\n"
            "       (set VCDN_BENCH_DISK_SCALE / VCDN_BENCH_SEED to change)\n");
}

TEST(BenchFlagsTest, FixedScaleRefusesTheScaleVariables) {
  EXPECT_EXIT(
      {
        setenv("VCDN_BENCH_SCALE", "0.5", 1);
        ScaleFromEnv(/*fixed_scale=*/true);
      },
      testing::ExitedWithCode(2), "error: 'VCDN_BENCH_SCALE' is set, but this bench runs at a fixed scale");
}

}  // namespace
}  // namespace vcdn::bench
