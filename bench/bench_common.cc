// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "bench/bench_common.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/str_util.h"

namespace vcdn::bench {

namespace {

std::string Join(const std::vector<Cell>& cells, const char* separator = "") {
  std::string out;
  for (const Cell& cell : cells) {
    out += (&cell == cells.data() ? "" : separator) + cell.ToString();
  }
  return out;
}

// Returns false, after an error on stderr, when the file cannot be written.
bool WriteCsv(const Block& table) {
  std::ofstream out(table.csv_path);
  for (const std::string& column : table.header) {
    out << (&column == table.header.data() ? "" : ",") << column;
  }
  out << "\n";
  for (const std::vector<Cell>& row : table.rows) {
    out << Join(row, ",") << "\n";
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", table.csv_path.c_str());
  }
  return static_cast<bool>(out);
}

}  // namespace

uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min) {
  util::Flags env;
  env.Count(name, &fallback, min);
  util::ExitOnUsageError(env.ParseEnvironment());
  return fallback;
}

BenchScale ScaleFromEnv() {
  BenchScale scale;
  util::Flags env;
  env.Number("VCDN_BENCH_SCALE", &scale.workload_scale, trace::kMaxProfileScale);
  env.Number("VCDN_BENCH_DAYS", &scale.days);
  env.Number("VCDN_BENCH_DISK_SCALE", &scale.chunks_per_paper_tb);
  env.Count("VCDN_BENCH_SEED", &scale.seed);
  util::ExitOnUsageError(env.ParseEnvironment());
  return scale;
}

BenchScale ResolveScale(const BenchFlags& flags) {
  BenchScale scale = ScaleFromEnv();
  if (flags.scale > 0.0) {
    scale.workload_scale = flags.scale;
  }
  return scale;
}

BenchFlags ParseBenchFlags(int argc, char** argv, unsigned reads, util::Flags own) {
  BenchFlags flags;
  if ((reads & kThreads) != 0) {
    own.Count("--threads", &flags.threads);
  }
  if ((reads & kRepeat) != 0) {
    own.Count("--repeat", &flags.repeat, /*min=*/1);
  }
  if ((reads & kScale) != 0) {
    own.Number("--scale", &flags.scale, trace::kMaxProfileScale);
  }
  if ((reads & kObs) != 0) {
    own.Text("--obs-json", &flags.obs_json);
    own.Text("--obs-series", &flags.obs_series);
    // 0 would record nothing and write no post-mortem.
    own.Count("--flight", &flags.flight, /*min=*/1);
    own.Text("--post-mortem", &flags.post_mortem);
  }
  util::ExitOnUsageError(own.Parse(argc, argv));
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

trace::Trace MakeEuropeTrace(const BenchScale& scale) {
  trace::WorkloadConfig config;
  config.profile = trace::EuropeProfile(scale.workload_scale);
  config.seed = scale.seed;
  config.duration_seconds = scale.duration_seconds();
  return trace::WorkloadGenerator(config).Generate().trace;
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
  if (config.disk_capacity_chunks == 0) {
    // A cache needs at least one chunk of disk; a scale that rounds a disk
    // down to none is the user's setting, not a library fault.
    util::ExitOnUsageError(util::InvalidArgumentError(
        Printf("invalid value '%g' for 'VCDN_BENCH_DISK_SCALE': a %g paper-TB disk would hold 0 "
               "chunks (need at least 1)",
               scale.chunks_per_paper_tb, paper_terabytes)));
  }
  config.alpha_f2r = alpha;
  return config;
}

BenchObs::BenchObs(const BenchFlags& flags)
    : flags_(flags), meta_(obs::CollectRunMetadata()) {
  if (flight_enabled()) {
    flight_ = std::make_unique<obs::FlightRecorder>(flags_.flight);
    if (!flags_.post_mortem.empty()) {
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
  obs::ArmCrashDump(flight_.get(), flags_.post_mortem, meta_, std::move(context));
}

void BenchObs::SetWorkload(const std::string& workload, uint64_t seed) {
  meta_.workload = workload;
  meta_.seed = seed;
  if (flight_ != nullptr && !flags_.post_mortem.empty()) {
    RearmCrashDump();
  }
}

void BenchObs::SetRunShape(size_t threads, size_t batch) {
  meta_.threads = threads;
  meta_.batch = batch;
  if (flight_ != nullptr && !flags_.post_mortem.empty()) {
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
    util::Status status = obs::WriteObsJsonFile(flags_.obs_json, &registry_, &sink_, &meta_);
    if (status.ok()) {
      std::printf("Observability dump written to %s (%zu trace events, %zu instruments)\n",
                  flags_.obs_json.c_str(), sink_.num_events(), registry_.num_instruments());
    }
    record(std::move(status));
  }

  if (series_enabled()) {
    util::Status status = series_.WriteJsonl(flags_.obs_series, meta_);
    if (status.ok()) {
      std::printf("Time series written to %s (%zu windows)\n", flags_.obs_series.c_str(),
                  series_.num_windows());
    }
    record(std::move(status));
  }

  if (flight_enabled() && !flags_.post_mortem.empty()) {
    // Fault-boundary captures accumulated during the run; when none fired,
    // dump the final ring so the file always reflects the run's tail.
    if (captures_.empty()) {
      obs::PostMortemContext context;
      context.trigger = "run_end";
      context.label = "main";
      captures_.push_back(obs::CaptureFlight(*flight_, std::move(context)));
    }
    std::ofstream out(flags_.post_mortem);
    if (!out) {
      record(util::InvalidArgumentError("cannot open post-mortem path: " + flags_.post_mortem));
    } else {
      size_t records = 0;
      for (const obs::FlightCapture& capture : captures_) {
        obs::WritePostMortemJsonl(out, meta_, capture);
        records += capture.records.size();
      }
      out.flush();
      if (!out) {
        record(util::DataLossError("short write to post-mortem path: " + flags_.post_mortem));
      } else {
        std::printf("Post-mortem written to %s (%zu capture%s, %zu records)\n",
                    flags_.post_mortem.c_str(), captures_.size(),
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
                                            const BenchFlags& flags, BenchObs* obs,
                                            ExperimentResult& result) {
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
    fleet = sim::RunFleet(servers, options);
    uint64_t d = sim::FleetDigest(fleet);
    if (k == 0) {
      digest = d;
    } else {
      VCDN_CHECK(d == digest);  // repeats of a deterministic fleet must agree
    }
  }
  if (obs != nullptr && obs->any_enabled()) {
    obs->SetRunShape(fleet.threads, sim::ReplayOptions{}.batch_size);
  }
  result.Line({Text(Printf(
                   "Fleet: %zu jobs on %zu thread%s, %.2fs wall%s, digest %016llx", jobs.size(),
                   fleet.threads, fleet.threads == 1 ? "" : "s", fleet.wall_seconds,
                   flags.repeat > 1
                       ? (" (last of " + std::to_string(flags.repeat) + " repeats)").c_str()
                       : "",
                   static_cast<unsigned long long>(digest)))},
              /*stdout_only=*/true);
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
  static bool checked = false;  // warn once when a bench checks early and again in PrintHeader
  if (checked) {
    return;
  }
  checked = true;
  const char* allow = std::getenv("VCDN_ALLOW_UNOPTIMIZED_BENCH");
  if (allow == nullptr || std::string(allow) != "1") {
    std::fprintf(stderr,
                 "error: this bench binary was built without NDEBUG (Debug or unoptimized "
                 "build).\n"
                 "Benchmark numbers from such a build are meaningless, and they must never\n"
                 "land in EXPERIMENTS.md or the docs. Rebuild with\n"
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

Cell Text(std::string text) { return Cell{std::move(text), std::nullopt, nullptr}; }

Cell Percent(double fraction) {
  return Number(fraction, [](double x) { return util::FormatPercent(x); });
}

Cell Count(uint64_t count) {
  return Number(static_cast<double>(count),
                [](double x) { return std::to_string(static_cast<uint64_t>(x)); });
}

Cell Number(double value, Render render) { return Cell{"", value, render}; }

Cell Holds(bool holds) { return Number(holds ? 1.0 : 0.0, RenderHolds); }

std::string RenderHolds(double holds) { return holds != 0.0 ? "OK" : "MISMATCH"; }

std::string Printf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, format, copy)), '\0');
  va_end(copy);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

std::string Block::ToString() const {
  if (header.empty()) {
    return Join(rows[0]) + "\n";
  }
  util::TextTable table(header);
  for (const std::vector<Cell>& row : rows) {
    std::vector<std::string> cells;
    for (const Cell& cell : row) {
      cells.push_back(cell.ToString());
    }
    table.AddRow(std::move(cells));
  }
  return (title.empty() ? "" : title + "\n") + table.ToString() + "\n";
}

void ExperimentResult::Line(std::vector<Cell> cells, bool stdout_only) {
  Block& block = blocks.emplace_back();
  block.rows.push_back(std::move(cells));
  block.stdout_only = stdout_only;
}

Block& ExperimentResult::Table(std::string heading, std::vector<std::string> columns) {
  Block& block = blocks.emplace_back();
  block.title = std::move(heading);
  block.header = std::move(columns);
  return block;
}

bool PrintResult(const ExperimentResult& result, const BenchScale& scale) {
  PrintHeader(result.title, result.paper_claim, scale);
  bool written = true;
  for (const Block& block : result.blocks) {
    if (block.csv_path.empty()) {
      std::fputs(block.ToString().c_str(), stdout);
    } else if (WriteCsv(block)) {
      std::printf("%s written to %s\n", block.title.c_str(), block.csv_path.c_str());
    } else {
      written = false;
    }
  }
  return written;
}

}  // namespace vcdn::bench
