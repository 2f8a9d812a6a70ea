// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/str_util.h"

namespace vcdn::bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    return fallback;
  }
  double parsed = 0.0;
  if (!util::ParseDouble(value, &parsed) || parsed <= 0.0) {
    std::fprintf(stderr, "warning: ignoring invalid %s=%s\n", name, value);
    return fallback;
  }
  return parsed;
}

}  // namespace

BenchScale ScaleFromEnv() {
  BenchScale scale;
  scale.workload_scale = EnvDouble("VCDN_BENCH_SCALE", scale.workload_scale);
  scale.days = EnvDouble("VCDN_BENCH_DAYS", scale.days);
  scale.chunks_per_paper_tb = EnvDouble("VCDN_BENCH_DISK_SCALE", scale.chunks_per_paper_tb);
  scale.seed = static_cast<uint64_t>(EnvDouble("VCDN_BENCH_SEED", 1.0));
  return scale;
}

BenchScale ResolveScale(const BenchFlags& flags) {
  BenchScale scale = ScaleFromEnv();
  if (flags.scale > 0.0) {
    scale.workload_scale = flags.scale;
  }
  return scale;
}

BenchFlags FlagsFromArgs(int argc, char** argv,
                         const std::vector<std::string>& extra_value_flags) {
  // Every accepted flag takes exactly one value. The obs flags are consumed
  // (and their values interpreted) by BenchObs; extras by the bench itself.
  static const char* const kSharedValueFlags[] = {
      "--threads", "--repeat", "--batch", "--scale",
      "--obs-json", "--obs-series", "--flight", "--post-mortem",
  };
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool known = false;
    for (const char* shared : kSharedValueFlags) {
      if (arg == shared) {
        known = true;
        break;
      }
    }
    if (!known) {
      for (const std::string& extra : extra_value_flags) {
        if (arg == extra) {
          known = true;
          break;
        }
      }
    }
    if (!known) {
      if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      } else {
        std::fprintf(stderr, "error: unexpected positional argument '%s'\n", arg.c_str());
      }
      std::exit(2);
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: flag '%s' is missing its value\n", arg.c_str());
      std::exit(2);
    }
    const char* value = argv[++i];
    // The three counts owned here (and --flight's capacity, owned by
    // BenchObs) must be valid unsigned integers; a typo must not silently
    // fall back to a default.
    if (arg == "--threads" || arg == "--repeat" || arg == "--batch" || arg == "--flight") {
      uint64_t parsed = 0;
      if (!util::ParseUint64(value, &parsed)) {
        std::fprintf(stderr, "error: invalid value '%s' for flag '%s'\n", value, arg.c_str());
        std::exit(2);
      }
      if (arg == "--threads") {
        flags.threads = static_cast<size_t>(parsed);
      } else if (arg == "--repeat") {
        flags.repeat = std::max<size_t>(1, static_cast<size_t>(parsed));
      } else if (arg == "--batch") {
        flags.batch = std::max<size_t>(1, static_cast<size_t>(parsed));
      }
    } else if (arg == "--scale") {
      double parsed = 0.0;
      if (!util::ParseDouble(value, &parsed) || !std::isfinite(parsed) || parsed <= 0.0) {
        std::fprintf(stderr, "error: invalid value '%s' for flag '--scale' (need a positive number)\n",
                     value);
        std::exit(2);
      }
      flags.scale = parsed;
    }
  }
  return flags;
}

trace::WorkloadConfig ServerWorkloadConfig(const trace::ServerProfile& profile, size_t index,
                                           const BenchScale& scale) {
  trace::WorkloadConfig config;
  config.profile = profile;
  config.seed = util::SplitSeed(scale.seed, index);
  config.duration_seconds = scale.duration_seconds();
  return config;
}

trace::Trace MakeServerTrace(trace::ServerProfile profile, const BenchScale& scale) {
  trace::WorkloadConfig config;
  config.profile = std::move(profile);
  config.seed = scale.seed;
  config.duration_seconds = scale.duration_seconds();
  return trace::WorkloadGenerator(config).Generate().trace;
}

trace::Trace MakeEuropeTrace(const BenchScale& scale) {
  return MakeServerTrace(trace::EuropeProfile(scale.workload_scale), scale);
}

std::vector<trace::Trace> MakeServerTraces(const std::vector<trace::ServerProfile>& profiles,
                                           const BenchScale& scale, const BenchFlags& flags) {
  std::vector<trace::WorkloadConfig> configs;
  configs.reserve(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    configs.push_back(ServerWorkloadConfig(profiles[i], i, scale));
  }
  trace::ParallelGenerateOptions options;
  options.threads = flags.threads;
  std::vector<trace::Trace> traces;
  traces.reserve(profiles.size());
  for (trace::GeneratedWorkload& workload : trace::GenerateWorkloads(configs, options)) {
    traces.push_back(std::move(workload.trace));
  }
  return traces;
}

core::CacheConfig PaperConfig(double paper_terabytes, double alpha, const BenchScale& scale) {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = scale.DiskChunks(paper_terabytes);
  config.alpha_f2r = alpha;
  return config;
}

BenchObs::BenchObs(int argc, char** argv) : meta_(obs::CollectRunMetadata()) {
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--obs-json") {
      path_ = argv[i + 1];
    } else if (arg == "--obs-series") {
      series_path_ = argv[i + 1];
    } else if (arg == "--post-mortem") {
      post_mortem_path_ = argv[i + 1];
    } else if (arg == "--flight") {
      uint64_t parsed = 0;
      if (!util::ParseUint64(argv[i + 1], &parsed) || parsed == 0) {
        std::fprintf(stderr, "warning: ignoring invalid --flight %s\n", argv[i + 1]);
      } else {
        flight_capacity_ = static_cast<size_t>(parsed);
      }
    }
  }
  if (flight_enabled()) {
    flight_ = std::make_unique<obs::FlightRecorder>(flight_capacity_);
    if (!post_mortem_path_.empty()) {
      // From here on, any VCDN_CHECK failure (including a fleet digest
      // mismatch) dumps the ring to the post-mortem path before aborting.
      // Re-armed by SetWorkload/SetRunShape so the dump header carries the
      // most recent run-shape metadata.
      RearmCrashDump();
    }
  }
}

BenchObs::~BenchObs() {
  if (flight_ != nullptr) {
    obs::DisarmCrashDump(flight_.get());
  }
}

void BenchObs::RearmCrashDump() {
  obs::DisarmCrashDump(flight_.get());
  obs::PostMortemContext context;
  context.label = "main";
  obs::ArmCrashDump(flight_.get(), post_mortem_path_, meta_, std::move(context));
}

void BenchObs::SetWorkload(const std::string& workload, uint64_t seed) {
  meta_.workload = workload;
  meta_.seed = seed;
  if (flight_ != nullptr && !post_mortem_path_.empty()) {
    RearmCrashDump();
  }
}

void BenchObs::SetRunShape(size_t threads, size_t batch) {
  meta_.threads = threads;
  meta_.batch = batch;
  if (flight_ != nullptr && !post_mortem_path_.empty()) {
    RearmCrashDump();
  }
}

util::Status BenchObs::WriteIfRequested() {
  util::Status result = util::OkStatus();
  auto record = [&result](util::Status status) {
    if (!status.ok()) {
      std::fprintf(stderr, "warning: %s\n", std::string(status.message()).c_str());
      if (result.ok()) {
        result = std::move(status);
      }
    }
  };

  if (enabled()) {
    util::Status status = obs::WriteObsJsonFile(path_, &registry_, &sink_, &meta_);
    if (status.ok()) {
      std::printf("Observability dump written to %s (%zu trace events, %zu instruments)\n",
                  path_.c_str(), sink_.num_events(), registry_.num_instruments());
    }
    record(std::move(status));
  }

  if (series_enabled()) {
    util::Status status = series_.WriteJsonl(series_path_, meta_);
    if (status.ok()) {
      std::printf("Time series written to %s (%zu windows)\n", series_path_.c_str(),
                  series_.num_windows());
    }
    record(std::move(status));
  }

  if (flight_enabled() && !post_mortem_path_.empty()) {
    // Fault-boundary captures accumulated during the run; when none fired,
    // dump the final ring so the file always reflects the run's tail.
    if (captures_.empty()) {
      obs::PostMortemContext context;
      context.trigger = "run_end";
      context.label = "main";
      captures_.push_back(obs::CaptureFlight(*flight_, std::move(context)));
    }
    std::ofstream out(post_mortem_path_);
    if (!out) {
      record(util::InvalidArgumentError("cannot open post-mortem path: " + post_mortem_path_));
    } else {
      size_t records = 0;
      for (const obs::FlightCapture& capture : captures_) {
        obs::WritePostMortemJsonl(out, meta_, capture);
        records += capture.records.size();
      }
      out.flush();
      if (!out) {
        record(util::DataLossError("short write to post-mortem path: " + post_mortem_path_));
      } else {
        std::printf("Post-mortem written to %s (%zu capture%s, %zu records)\n",
                    post_mortem_path_.c_str(), captures_.size(),
                    captures_.size() == 1 ? "" : "s", records);
      }
    }
    // The run completed; disarm so a late CHECK cannot clobber the dump.
    obs::DisarmCrashDump(flight_.get());
  }
  return result;
}

sim::ReplayOptions BenchObs::replay_options() {
  sim::ReplayOptions options;
  if (enabled() || series_enabled()) {
    options.metrics = &registry_;
  }
  if (enabled()) {
    options.trace_sink = &sink_;
  }
  if (series_enabled()) {
    options.series = &series_;
  }
  if (flight_enabled()) {
    options.flight = flight_.get();
    options.flight_captures = &captures_;
    options.flight_label = "main";
  }
  return options;
}

sim::ReplayResult RunCache(core::CacheKind kind, const trace::Trace& trace,
                           const core::CacheConfig& config, BenchObs* obs) {
  auto cache = core::MakeCache(kind, config);
  sim::ReplayOptions options;
  if (obs != nullptr && obs->any_enabled()) {
    options = obs->replay_options();
  }
  return sim::Replay(*cache, trace, options);
}

std::vector<sim::ReplayResult> RunCacheJobs(const std::vector<CacheJob>& jobs,
                                            const BenchFlags& flags, BenchObs* obs) {
  std::vector<sim::FleetServer> servers;
  servers.reserve(jobs.size());
  for (const CacheJob& job : jobs) {
    servers.push_back(sim::FleetServer{job.name, job.kind, job.config, job.trace, {}});
  }

  sim::FleetResult fleet;
  uint64_t digest = 0;
  for (size_t k = 0; k < flags.repeat; ++k) {
    sim::FleetOptions options;
    options.threads = flags.threads;
    if (k + 1 == flags.repeat && obs != nullptr && obs->any_enabled()) {
      options.replay = obs->replay_options();
    }
    options.replay.batch_size = flags.batch;
    fleet = sim::RunFleet(servers, options);
    uint64_t d = sim::FleetDigest(fleet);
    if (k == 0) {
      digest = d;
    } else {
      VCDN_CHECK(d == digest);  // repeats of a deterministic fleet must agree
    }
  }
  if (obs != nullptr && obs->any_enabled()) {
    obs->SetRunShape(fleet.threads, flags.batch);
  }
  std::printf("Fleet: %zu jobs on %zu thread%s, %.2fs wall%s, digest %016llx\n", jobs.size(),
              fleet.threads, fleet.threads == 1 ? "" : "s", fleet.wall_seconds,
              flags.repeat > 1 ? (" (last of " + std::to_string(flags.repeat) + " repeats)").c_str()
                               : "",
              static_cast<unsigned long long>(digest));
  return std::move(fleet.servers);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    double kb = 0.0;
    if (std::sscanf(line.c_str(), "VmHWM: %lf kB", &kb) == 1) {
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void RequireReleaseBuild() {
#ifndef NDEBUG
  const char* allow = std::getenv("VCDN_ALLOW_UNOPTIMIZED_BENCH");
  if (allow == nullptr || std::string(allow) != "1") {
    std::fprintf(stderr,
                 "error: this bench binary was built without NDEBUG (Debug or unoptimized "
                 "build).\n"
                 "Benchmark numbers from such a build are meaningless -- throughput knobs\n"
                 "like --batch N only show their effect under optimization. Rebuild with\n"
                 "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release\n"
                 "or set VCDN_ALLOW_UNOPTIMIZED_BENCH=1 to run anyway (smoke tests only).\n");
    std::abort();
  }
  std::fprintf(stderr,
               "warning: unoptimized bench build (VCDN_ALLOW_UNOPTIMIZED_BENCH=1); do not "
               "record these numbers\n");
#endif
}

void PrintHeader(const std::string& experiment, const std::string& paper_claim,
                 const BenchScale& scale) {
  RequireReleaseBuild();
  std::printf("==============================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf(
      "Scale: workload x%.3g, %.0f days, %.0f chunks per paper-TB, seed %llu\n"
      "       (set VCDN_BENCH_SCALE / VCDN_BENCH_DAYS / VCDN_BENCH_DISK_SCALE /\n"
      "        VCDN_BENCH_SEED to change)\n",
      scale.workload_scale, scale.days, scale.chunks_per_paper_tb,
      static_cast<unsigned long long>(scale.seed));
  std::printf("==============================================================================\n");
}

}  // namespace vcdn::bench
