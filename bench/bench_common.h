// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Shared infrastructure for the experiment binaries (one per paper figure).
//
// Scaling: the paper replays one month of production traffic against 1 TB
// disks. The reproduction runs the same experiment shapes on a scaled-down
// synthetic workload; the scale is configurable via environment variables so
// a full-size run is one knob away:
//
//   VCDN_BENCH_SCALE       workload scale factor (catalog size, request rate,
//                          churn scale together). Default 0.25.
//   VCDN_BENCH_DAYS        trace length in days. Default 30 (the paper's month).
//   VCDN_BENCH_DISK_SCALE  chunks per "paper terabyte". Default 4096 (8 GiB),
//                          calibrated so the default-scale Europe workload
//                          reproduces the paper's absolute efficiency levels
//                          (xLRU ~59/62%, Cafe ~61/73% at alpha = 1/2).
//   VCDN_BENCH_SEED        workload seed. Default 1.
//
// Every bench prints the measured table next to the paper's reported claim so
// EXPERIMENTS.md can record paper-vs-measured side by side.

#ifndef VCDN_BENCH_BENCH_COMMON_H_
#define VCDN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
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

struct BenchFlags;

// Environment scale with the --scale flag applied on top: the env vars are
// honored, an explicit --scale wins. This is what bench mains should call
// (after FlagsFromArgs, which validates the flag).
BenchScale ResolveScale(const BenchFlags& flags);

// Command-line flags shared by the experiment binaries:
//
//   --threads N   worker threads for the fleet-parallel stages (trace
//                 generation, independent replays). 0 = hardware concurrency
//                 (the default), 1 = sequential on the calling thread.
//   --repeat K    run the replay stage K times (timing stability / soak).
//                 All repeats must produce the same FleetDigest; only the
//                 last records into --obs-json instruments.
//   --batch N     requests per CacheAlgorithm::HandleRequestBatch call in the
//                 replay loop (sim::ReplayOptions::batch_size; 1 disables
//                 batching). Results are bit-identical at any N -- the knob
//                 only changes how much memory-level parallelism the cache
//                 can extract.
//   --scale X     workload scale factor, the first-class form of
//                 VCDN_BENCH_SCALE (the env var is still honored; the flag
//                 wins -- see ResolveScale). Must be a positive number.
//
// Parsing fails FAST: an unknown "--" flag, a flag with a missing value, an
// unparsable count, or a stray positional argument prints an error naming
// the offender to stderr and exits with status 2. A typoed "--thread 8"
// silently running the default configuration is how wrong bench numbers get
// committed. Benches with their own value-taking flags (e.g. --connect,
// --max-threads) declare them via `extra_value_flags`; their values are
// validated for presence here and parsed by the bench. The BenchObs flags
// (--obs-json, --obs-series, --flight, --post-mortem) are always accepted.
struct BenchFlags {
  size_t threads = 0;
  size_t repeat = 1;
  size_t batch = 16;
  // Workload scale from --scale; 0 means "not given" (ResolveScale then
  // falls back to VCDN_BENCH_SCALE / the default).
  double scale = 0.0;
};
BenchFlags FlagsFromArgs(int argc, char** argv,
                         const std::vector<std::string>& extra_value_flags = {});

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
  // Scans argv for the obs flags; other flags are left for the bench.
  BenchObs(int argc, char** argv);
  ~BenchObs();

  bool enabled() const { return !path_.empty(); }
  bool series_enabled() const { return !series_path_.empty(); }
  bool flight_enabled() const { return flight_capacity_ > 0; }
  bool any_enabled() const { return enabled() || series_enabled() || flight_enabled(); }

  obs::MetricsRegistry* metrics() {
    return enabled() || series_enabled() ? &registry_ : nullptr;
  }
  obs::TraceEventSink* trace_sink() { return enabled() ? &sink_ : nullptr; }
  // The main flight ring; null unless --flight was given.
  obs::FlightRecorder* flight() { return flight_.get(); }

  // Run-shape fields embedded in every artifact header (workload and seed
  // from the bench, threads and batch filled by RunCacheJobs).
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

  std::string path_;
  std::string series_path_;
  std::string post_mortem_path_;
  size_t flight_capacity_ = 0;
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

// Generates the one-month trace of a server profile at the given scale.
trace::Trace MakeServerTrace(trace::ServerProfile profile, const BenchScale& scale);

// The Europe trace used by Figs. 3-6.
trace::Trace MakeEuropeTrace(const BenchScale& scale);

// Generates one trace per profile, in parallel across flags.threads workers.
// Server i draws from the decorrelated RNG stream util::SplitSeed(scale.seed,
// i) -- the servers stay distinct workloads under a single seed knob, and
// the result is identical for any thread count.
std::vector<trace::Trace> MakeServerTraces(const std::vector<trace::ServerProfile>& profiles,
                                           const BenchScale& scale, const BenchFlags& flags);

// Cache config in "paper units": disk quoted in paper-TB.
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

// Replays the jobs as a sim::RunFleet fleet across flags.threads workers,
// flags.repeat times (the repeats must agree on the FleetDigest; only the
// last one records into `obs`). Prints a one-line summary -- wall seconds,
// thread count, digest -- and returns the per-job results in job order,
// identical for any thread count.
std::vector<sim::ReplayResult> RunCacheJobs(const std::vector<CacheJob>& jobs,
                                            const BenchFlags& flags, BenchObs* obs = nullptr);

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

}  // namespace vcdn::bench

#endif  // VCDN_BENCH_BENCH_COMMON_H_
