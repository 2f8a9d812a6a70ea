// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Shared infrastructure for the bench binaries, and the paper's figures and
// ablations, each defined once as a function that runs the experiment and
// returns what it measured (ExperimentResult). Its bench binary prints the
// result for one seed; bench_experiments prints it for seeds 1-10 into
// EXPERIMENTS.md.
//
// Scaling: the paper replays one month of production traffic against 1 TB
// disks. The reproduction runs the same experiment shapes on a scaled-down
// synthetic workload; the scale is configurable via environment variables so
// a full-size run is one knob away:
//
//   VCDN_BENCH_SCALE       workload scale factor (catalog size, request rate,
//                          churn scale together), in (0, 4]. Default 0.25.
//   VCDN_BENCH_DAYS        trace length in days. Default 30 (the paper's month).
//   VCDN_BENCH_DISK_SCALE  chunks per "paper terabyte". Default 4096 (8 GiB),
//                          calibrated so the default-scale Europe workload
//                          reproduces the paper's absolute efficiency levels
//                          (xLRU ~59/62%, Cafe ~61/73% at alpha = 1/2). It
//                          must leave every disk a bench builds at least one
//                          chunk (see PaperConfig).
//   VCDN_BENCH_SEED        workload seed, any uint64 (0 included). Default 1.
//
// They parse like the flags below: a variable that is set must hold a value
// in range, or the bench prints an error naming it and exits with status 2.

#ifndef VCDN_BENCH_BENCH_COMMON_H_
#define VCDN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/run_metadata.h"
#include "src/obs/time_series.h"
#include "src/obs/trace_event.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"
#include "src/util/flags.h"
#include "src/util/status.h"

namespace vcdn::bench {

struct BenchScale {
  double workload_scale = 0.25;
  double days = 30.0;
  double chunks_per_paper_tb = 4096.0;
  uint64_t seed = 1;

  double duration_seconds() const { return days * 86400.0; }
  uint64_t DiskChunks(double paper_terabytes) const {
    return static_cast<uint64_t>(paper_terabytes * chunks_per_paper_tb);
  }
};

// Reads the scale from the environment (defaults above).
BenchScale ScaleFromEnv();

// Reads environment variable `name` as an unsigned integer of at least `min`
// (`fallback` when unset); an invalid value exits 2, naming the variable.
uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min = 0);

// Command-line flags shared by the bench binaries, with the four BenchObs
// flags below; each bench reads the ones it names to ParseBenchFlags:
//
//   --threads N   worker threads for the fleet-parallel stages (trace
//                 generation, independent replays). 0 = hardware concurrency
//                 (the default), 1 = sequential on the calling thread.
//   --repeat K    run the replay stage K >= 1 times (timing stability /
//                 soak). All repeats must produce the same FleetDigest; only
//                 the last records into --obs-json instruments.
//   --scale X     workload scale factor in (0, 4], the first-class form of
//                 VCDN_BENCH_SCALE (the env var is still honored; the flag
//                 wins -- see ResolveScale).
struct BenchFlags {
  size_t threads = 0;
  size_t repeat = 1;
  // Workload scale from --scale; 0 means "not given" (ResolveScale then
  // falls back to VCDN_BENCH_SCALE / the default).
  double scale = 0.0;
  std::string obs_json;
  std::string obs_series;
  size_t flight = 0;  // 0: no flight recorders
  std::string post_mortem;
};

// The shared flags a bench reads, for ParseBenchFlags; kObs stands for the
// four BenchObs flags.
enum BenchFlag : unsigned { kThreads = 1, kRepeat = 2, kScale = 4, kObs = 8 };

// Parses argv into the shared flags in `reads` (BenchFlag bits) and the
// bench's own flags, declared on `own`. Any other argument, a missing value
// or a value out of range is a usage error: it exits 2 naming the offender
// (util::ExitOnUsageError) and never runs the default configuration -- that
// is how wrong bench numbers get committed.
BenchFlags ParseBenchFlags(int argc, char** argv, unsigned reads, util::Flags own = {});

// Environment scale with the --scale flag applied on top: the env vars are
// honored, an explicit --scale wins.
BenchScale ResolveScale(const BenchFlags& flags);

// Optional observability sinks shared by the experiment binaries:
//
//   --obs-json <path>     combined metrics + Chrome traceEvents document
//                         (chrome://tracing / Perfetto), written at exit.
//   --obs-series <path>   windowed time-series JSONL: one line per replay
//                         bucket with counter deltas, gauge values and hdr
//                         quantiles (obs::TimeSeriesRecorder). Implies the
//                         metrics registry.
//   --flight <N>          per-shard flight recorders of capacity N (decision
//                         ring; alloc-free on the hot path).
//   --post-mortem <path>  with --flight: fault-boundary captures (and, when
//                         none fired, the final ring) dump here as JSONL; the
//                         ring is also armed to dump on any VCDN_CHECK
//                         failure, including a fleet digest mismatch.
//
// Without flags the instruments stay detached and replay runs at full speed.
// Every artifact embeds obs::RunMetadata (git describe, build type,
// compiler, workload shape) in its header.
class BenchObs {
 public:
  // The sinks `flags` names (none for a default BenchFlags).
  explicit BenchObs(const BenchFlags& flags);
  ~BenchObs();

  bool enabled() const { return !flags_.obs_json.empty(); }
  bool series_enabled() const { return !flags_.obs_series.empty(); }
  bool flight_enabled() const { return flags_.flight > 0; }
  bool any_enabled() const { return enabled() || series_enabled() || flight_enabled(); }

  obs::MetricsRegistry* metrics() {
    return enabled() || series_enabled() ? &registry_ : nullptr;
  }
  obs::TraceEventSink* trace_sink() { return enabled() ? &sink_ : nullptr; }

  // Run-shape fields embedded in every artifact header (workload and seed
  // from the bench, threads and the replay's batch size filled by
  // RunCacheJobs).
  void SetWorkload(const std::string& workload, uint64_t seed);
  void SetRunShape(size_t threads, size_t batch);

  // Writes every requested artifact; failures are printed to stderr and the
  // first non-OK Status is returned (callers that exit through main get the
  // stderr line either way -- a dropped dump must not look like success).
  util::Status WriteIfRequested();

  // ReplayOptions wired to this BenchObs (empty when disabled), for benches
  // that call sim::Replay directly instead of going through RunCache.
  sim::ReplayOptions replay_options();

 private:
  // Disarm + arm the main flight ring so the crash-dump header carries the
  // current meta_ (ArmCrashDump copies the metadata at arm time).
  void RearmCrashDump();

  const BenchFlags flags_;
  obs::MetricsRegistry registry_;
  obs::TraceEventSink sink_;
  obs::TimeSeriesRecorder series_{&registry_};
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::vector<obs::FlightCapture> captures_;
  obs::RunMetadata meta_;
};

// The workload config MakeServerTraces materializes for server `index` of a
// profile set: seed util::SplitSeed(scale.seed, index), duration from the
// scale. Streaming producers (trace::GeneratedStream) built over this config
// are bit-identical to the materialized trace.
trace::WorkloadConfig ServerWorkloadConfig(const trace::ServerProfile& profile, size_t index,
                                           const BenchScale& scale);

// The Europe trace used by Figs. 3-6 and the ablations: the Europe profile
// seeded with scale.seed itself (Fig. 7's Europe is MakeServerTraces' server
// 3, a different trace).
trace::Trace MakeEuropeTrace(const BenchScale& scale);

// Generates one trace per profile, in parallel across flags.threads workers.
// Server i draws from the decorrelated RNG stream util::SplitSeed(scale.seed,
// i) -- the servers stay distinct workloads under a single seed knob, and
// the result is identical for any thread count.
std::vector<trace::Trace> MakeServerTraces(const std::vector<trace::ServerProfile>& profiles,
                                           const BenchScale& scale, const BenchFlags& flags);

// Cache config in "paper units": disk quoted in paper-TB. A disk that
// VCDN_BENCH_DISK_SCALE rounds down to 0 chunks is a usage error: it exits
// 2, naming the variable.
core::CacheConfig PaperConfig(double paper_terabytes, double alpha, const BenchScale& scale);

// Replays `kind` on `trace` and returns the steady-state result. When `obs`
// is non-null and enabled, the replay records into its registry/trace sink.
sim::ReplayResult RunCache(core::CacheKind kind, const trace::Trace& trace,
                           const core::CacheConfig& config, BenchObs* obs = nullptr);

// One independent replay job (a cache kind x config on a trace). Traces are
// not owned and may be shared between jobs.
struct CacheJob {
  std::string name;
  core::CacheKind kind = core::CacheKind::kCafe;
  core::CacheConfig config;
  const trace::Trace* trace = nullptr;
};

// Renders a number as its bench prints it, e.g. "12.7%".
using Render = std::string (*)(double);

// A label, or a number kept with its format so that bench_experiments can
// print medians and ranges of it.
struct Cell {
  std::string text;  // the label; for a number, what prints when `value` is absent
  std::optional<double> value;
  Render render = nullptr;  // set for numbers

  std::string ToString() const { return value.has_value() ? render(*value) : text; }
};
Cell Text(std::string text);
Cell Percent(double fraction);  // util::FormatPercent
Cell Count(uint64_t count);
Cell Number(double value, Render render);
// A shape check: prints "OK" or "MISMATCH"; bench_experiments counts the
// seeds on which it holds.
Cell Holds(bool holds);
std::string RenderHolds(double holds);
std::string Printf(const char* format, ...) __attribute__((format(printf, 1, 2)));

// A table when `header` is set: `title` on its own line when set, then a
// util::TextTable and a blank line. Otherwise a line, the cells of rows[0].
struct Block {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<Cell>> rows;
  // Printed, but left out of EXPERIMENTS.md: series (Fig. 3's daily rows and
  // hour-of-day bars) and run detail (the Fleet line's wall time and threads).
  bool stdout_only = false;
  // A table written to this file as CSV instead, with "<title> written to
  // <path>" printed in its place; never in EXPERIMENTS.md.
  std::string csv_path;

  std::string ToString() const;
};

struct ExperimentResult {
  // Names the EXPERIMENTS.md block and the obs workload, e.g. "fig4 alpha sweep".
  std::string name;
  std::string title;
  std::string paper_claim;
  std::string trace;  // which trace it replays, stated in EXPERIMENTS.md
  std::deque<Block> blocks = {};  // a deque, so Table's reference stays valid

  void Line(std::vector<Cell> cells, bool stdout_only = false);
  // Appends a table; add its rows through the returned block.
  Block& Table(std::string heading, std::vector<std::string> columns);
};

// The two ways "Europe at seed s" is generated.
inline constexpr const char* kEuropeTrace = "Europe, MakeEuropeTrace (generator seed s)";
inline constexpr const char* kServerTraces =
    "the six servers, MakeServerTraces (server i seeded SplitSeed(s, i); Europe is i = 3)";

// Replays the jobs as a sim::RunFleet fleet across flags.threads workers,
// flags.repeat times (the repeats must agree on the FleetDigest; only the
// last one records into `obs`). Adds a one-line summary -- wall seconds,
// thread count, digest -- to `result` as a stdout-only line, and returns the
// per-job results in job order, identical for any thread count.
std::vector<sim::ReplayResult> RunCacheJobs(const std::vector<CacheJob>& jobs,
                                            const BenchFlags& flags, BenchObs* obs,
                                            ExperimentResult& result);

// The process's peak RSS (VmHWM from /proc/self/status) in MiB: the
// high-water mark since process start, which bench_scale_sweep checks.
double PeakRssMb();

// Prints the experiment banner: figure id, what the paper reported, and the
// scale in effect. Also enforces RequireReleaseBuild().
void PrintHeader(const std::string& experiment, const std::string& paper_claim,
                 const BenchScale& scale);

// Aborts with a clear message when the binary was built without NDEBUG
// (Debug / unoptimized): bench numbers from such builds are meaningless and
// must never land in EXPERIMENTS.md or the docs. Set
// VCDN_ALLOW_UNOPTIMIZED_BENCH=1 to override (CI smoke runs of Debug builds).
void RequireReleaseBuild();

// The experiments (bench/figures.cc): Figs. 2-7 of the paper's evaluation
// (Sec. 9), then the ablations of Cafe's design (Sec. 6), of the Sec. 2
// disk-interference claim, of footnote 2's co-location and of the Sec. 10
// extensions. Each prints nothing and writes no files.
using ExperimentFn = ExperimentResult(const BenchScale& scale, const BenchFlags& flags,
                                      BenchObs& obs);
ExperimentFn Fig2OptimalVsPsychic, Fig3Timeseries, Fig4AlphaSweep, Fig5OperatingPoints,
    Fig6DiskSweep, Fig7SixServers, AblationCafe, AblationDiskInterference, AblationColocation,
    AblationExtensions;

// Prints `result` as its bench prints it: the banner, then every block.
// Returns false, after an error on stderr, when a CSV table cannot be
// written.
bool PrintResult(const ExperimentResult& result, const BenchScale& scale);

}  // namespace vcdn::bench

#endif  // VCDN_BENCH_BENCH_COMMON_H_
