// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// fleet-mmap and fleet-churn: the Fig. 7 fleet -- six paper server profiles
// x {xLRU, Cafe} = 12 shards, in bench_scale_sweep's order -- at workload
// scale 1.0 (the full month, 6.25 M cache decisions), alpha_F2R = 2, batch 16.
//
//   fleet-mmap   1 paper-TB disk. Set-up packs the trace into a VCDNTRS2
//                file; sim::RunFleet replays the mmap'd sections on 2
//                workers with telemetry detached.
//   fleet-churn  0.25 paper-TB disk. trace::GeneratedStream generates on its
//                own 2-thread pool while RunFleet replays on 2 workers, with
//                a TimeSeriesRecorder window per hourly bucket and a flight
//                ring per shard.
//
// The workload is the seed-1 month; --seed renames its videos
// (perfbench/rename.h explains why).
//
// Correctness gate: set-up replays the fleet once more from materialized
// traces on 4 threads; every timed run's sim::FleetDigest must equal that
// reference, and at seed 1 the reference must equal the committed constant.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/rename.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/core/cache_factory.h"
#include "src/exec/future.h"
#include "src/exec/thread_pool.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/time_series.h"
#include "src/sim/parallel_fleet.h"
#include "src/sim/replay.h"
#include "src/trace/generated_stream.h"
#include "src/trace/server_profile.h"
#include "src/trace/trace_file.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using namespace vcdn;

constexpr double kWorkloadScale = 1.0;
constexpr uint64_t kWorkloadSeed = 1;
constexpr double kDays = 30.0;
constexpr double kChunksPerPaperTb = 4096.0;
constexpr double kAlpha = 2.0;
constexpr size_t kBatch = 16;
constexpr size_t kReplayWorkers = 2;
constexpr size_t kGeneratorThreads = 2;
constexpr size_t kReferenceThreads = 4;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kMinTimedRepeats = 3;
constexpr size_t kFlightCapacity = 4096;
// One full span record per this many calls (totals count every call).
constexpr size_t kSpanSampleEvery = 16;

struct FleetSpec {
  const char* workload;
  double paper_tb;
  bool mmap;       // VCDNTRS2 producer; otherwise GeneratedStream on a pool
  bool telemetry;  // series + flight ring attached
  uint64_t seed1_digest;
};

// fleet-mmap's seed-1 digest is the scale-1.0 digest in BENCH_scale.json;
// fleet-churn's was recorded from this benchmark's first run.
constexpr FleetSpec kMmapSpec{"fleet-mmap", 1.0, true, false, 0x1d7511fabda0cf0aULL};
constexpr FleetSpec kChurnSpec{"fleet-churn", 0.25, false, true, 0x4439dbc0a1218b1dULL};

struct Shard {
  std::string name;
  core::CacheKind kind;
  trace::WorkloadConfig workload;
  size_t server;
};

std::vector<Shard> MakeShards() {
  const std::vector<trace::ServerProfile> profiles = trace::PaperServerProfiles(kWorkloadScale);
  std::vector<Shard> shards;
  for (size_t s = 0; s < profiles.size(); ++s) {
    trace::WorkloadConfig workload;
    workload.profile = profiles[s];
    workload.seed = util::SplitSeed(kWorkloadSeed, s);
    workload.duration_seconds = kDays * 86400.0;
    shards.push_back({profiles[s].name + "/xLRU", core::CacheKind::kXlru, workload, s});
    shards.push_back({profiles[s].name + "/Cafe", core::CacheKind::kCafe, workload, s});
  }
  return shards;
}

core::CacheConfig CacheConfigFor(const FleetSpec& spec) {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = static_cast<uint64_t>(spec.paper_tb * kChunksPerPaperTb);
  config.alpha_f2r = kAlpha;
  return config;
}

// Telemetry sinks of one fleet run (fresh per run, as a Fig. 3 run has).
struct Telemetry {
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series{&registry};
  obs::FlightRecorder flight{kFlightCapacity};
  std::vector<obs::FlightCapture> captures;

  void Attach(sim::ReplayOptions& options, const std::string& label) {
    options.metrics = &registry;
    options.series = &series;
    options.flight = &flight;
    options.flight_captures = &captures;
    options.flight_label = label;
  }
};

// ---- set-up ----------------------------------------------------------------

struct SetupRun {
  double total_s = 0.0;
  double generate_s = 0.0;
  double pack_s = 0.0;
  double validate_s = 0.0;
  double reference_s = 0.0;
  uint64_t reference_digest = 0;
  std::vector<VideoRenaming> renamings;  // per server
};

// One set-up: generate every server's month (materialized, in parallel),
// pack it into the VCDNTRS2 file (fleet-mmap), validate the file, and replay
// the materialized traces -- a producer independent of both timed ones --
// for the reference digest.
SetupRun SetUpOnce(const FleetSpec& spec, const std::vector<Shard>& shards, uint64_t seed,
                   const std::string& trace_path, std::string* error) {
  SetupRun run;
  const Clock::time_point start = Clock::now();
  std::vector<trace::WorkloadConfig> configs;
  for (size_t i = 0; i < shards.size(); i += 2) {
    configs.push_back(shards[i].workload);
  }
  trace::ParallelGenerateOptions generate;
  generate.threads = kReferenceThreads;
  std::vector<trace::GeneratedWorkload> servers = trace::GenerateWorkloads(configs, generate);
  for (size_t s = 0; s < servers.size(); ++s) {
    run.renamings.push_back(VideoRenaming::ForSeed(seed, s, servers[s].catalog.videos.size()));
    run.renamings.back().Apply(servers[s].trace.requests);
  }
  run.generate_s = SecondsSince(start);

  if (spec.mmap) {
    const Clock::time_point pack_start = Clock::now();
    std::vector<const trace::Trace*> traces;
    std::vector<uint64_t> catalogs;
    for (const trace::GeneratedWorkload& server : servers) {
      traces.push_back(&server.trace);
      catalogs.push_back(server.catalog.videos.size());
    }
    const util::Status packed = trace::WriteTraceFile(traces, trace_path, catalogs);
    run.pack_s = SecondsSince(pack_start);
    if (!packed.ok()) {
      *error = "packing the trace failed: " + std::string(packed.message());
      return run;
    }
    const Clock::time_point validate_start = Clock::now();
    util::Result<trace::MmapTrace> mapped = trace::MmapTrace::Open(trace_path);
    if (!mapped.ok() || !mapped.value().Validate().ok()) {
      *error = "the packed trace failed validation";
      return run;
    }
    run.validate_s = SecondsSince(validate_start);
  }

  const Clock::time_point reference_start = Clock::now();
  const core::CacheConfig config = CacheConfigFor(spec);
  std::vector<sim::FleetServer> fleet;
  for (const Shard& shard : shards) {
    fleet.push_back(
        sim::FleetServer{shard.name, shard.kind, config, &servers[shard.server].trace, {}});
  }
  sim::FleetOptions options;
  options.threads = kReferenceThreads;
  options.replay.batch_size = kBatch;
  run.reference_digest = sim::FleetDigest(sim::RunFleet(fleet, options));
  run.reference_s = SecondsSince(reference_start);
  run.total_s = SecondsSince(start);
  return run;
}

// ---- timed RunFleet runs -----------------------------------------------------

struct FleetRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t steal_ticks = 0;  // host steal during the run (harness.h)
  // Median over Cafe's shards of each shard's median decision time.
  double cafe_p50_us = 0.0;
  uint64_t requests = 0;
  uint64_t digest = 0;
  sim::FleetResult result;
  double generate_s = 0.0;
  double consumer_wait_s = 0.0;
  exec::ThreadPool::Stats pool;
};

// A shard's request source: its section of the packed file (already
// renamed), or its server's month generated on `generators` and renamed as
// it streams.
std::unique_ptr<trace::RequestStream> MakeServerStream(
    const Shard& shard, const trace::MmapTrace* trace_file, exec::ThreadPool* generators,
    trace::GeneratedStreamStats* stats, const std::vector<VideoRenaming>& renamings) {
  if (trace_file != nullptr) {
    return trace_file->ServerStream(shard.server);
  }
  trace::GeneratedStreamOptions options;
  options.generator_pool = generators;
  options.stats = stats;
  return std::make_unique<RenamingStream>(
      std::make_unique<trace::GeneratedStream>(shard.workload, options),
      renamings[shard.server]);
}

// One untraced sim::RunFleet over the workload's producer. Each shard's
// stream sits behind a StreamProbe that only timestamps span boundaries,
// giving the per-request decision time samples.
FleetRun RunFleetOnce(const FleetSpec& spec, const std::vector<Shard>& shards,
                      const trace::MmapTrace* trace_file,
                      const std::vector<VideoRenaming>& renamings,
                      std::vector<float>* latency_us) {
  FleetRun run;
  trace::GeneratedStreamStats stats;
  std::optional<exec::ThreadPool> generator_pool;
  if (!spec.mmap) {
    generator_pool.emplace(kGeneratorThreads);
  }
  exec::ThreadPool replay_pool(kReplayWorkers);
  std::vector<std::vector<float>> samples(shards.size());
  const core::CacheConfig config = CacheConfigFor(spec);
  std::vector<sim::FleetServer> servers;
  for (size_t i = 0; i < shards.size(); ++i) {
    samples[i].reserve(4096);
    sim::FleetServer server{shards[i].name, shards[i].kind, config, nullptr, {}};
    const Shard* shard = &shards[i];
    std::vector<float>* shard_samples = &samples[i];
    exec::ThreadPool* generators = generator_pool.has_value() ? &*generator_pool : nullptr;
    server.stream = [shard, trace_file, generators, &stats, &renamings,
                     shard_samples]() -> std::unique_ptr<trace::RequestStream> {
      return std::make_unique<StreamProbe>(
          MakeServerStream(*shard, trace_file, generators, &stats, renamings), nullptr,
          kNoParent, shard_samples);
    };
    servers.push_back(std::move(server));
  }
  sim::FleetOptions options;
  options.pool = &replay_pool;
  options.replay.batch_size = kBatch;
  std::optional<Telemetry> telemetry;
  if (spec.telemetry) {
    telemetry.emplace();
    telemetry->Attach(options.replay, "fleet");
  }

  const ProcessUsage before = ReadProcessUsage();
  const uint64_t steal_before = StealTicks();
  const Clock::time_point start = Clock::now();
  run.result = sim::RunFleet(servers, options);
  run.wall_s = SecondsSince(start);
  run.steal_ticks = StealTicks() - steal_before;
  const ProcessUsage after = ReadProcessUsage();
  replay_pool.Shutdown();
  if (generator_pool.has_value()) {
    generator_pool->Shutdown();
  }
  run.pool = replay_pool.stats();
  run.cpu_s = after.cpu_seconds - before.cpu_seconds;
  run.requests = run.result.totals.requests;
  run.digest = sim::FleetDigest(run.result);
  run.generate_s = static_cast<double>(stats.generate_ns.load()) * 1e-9;
  run.consumer_wait_s = static_cast<double>(stats.consumer_wait_ns.load()) * 1e-9;
  // Cafe's shards only, and the median taken per shard: the decision times
  // form one mode per shard, so the median of the pooled samples falls in a
  // gap between modes and jumps across it from run to run.
  std::vector<double> shard_p50;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].kind == core::CacheKind::kCafe) {
      latency_us->insert(latency_us->end(), samples[i].begin(), samples[i].end());
      std::sort(samples[i].begin(), samples[i].end());
      shard_p50.push_back(SortedPercentile(samples[i], 0.50));
    }
  }
  run.cafe_p50_us = Median(shard_p50);
  return run;
}

// Steady-state Eq. 2 efficiency over every shard of one algorithm.
double AlgorithmEfficiency(const sim::FleetResult& result, const std::vector<Shard>& shards,
                           core::CacheKind kind) {
  sim::ReplayTotals steady;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].kind == kind) {
      steady.Add(result.servers[i].steady);
    }
  }
  return steady.Efficiency(core::CostModel(kAlpha));
}

// ---- traced runs on the benchmark's own pool ---------------------------------

struct ShardTrace {
  double wall_s = 0.0;
  uint64_t next_ns = 0;
  CacheLayerTotals cache;
};

struct PoolRun {
  double wall_s = 0.0;
  uint64_t digest = 0;
  uint64_t requests = 0;
  std::vector<ShardTrace> shards;
};

// Drives every shard through sim::ReplayStream on a 2-worker pool of the
// benchmark's own (RunFleet builds its caches internally, so a forwarding
// cache cannot be slipped in there). With `traced`, streams and caches are
// wrapped and spans logged; without, the same structure runs bare, which is
// the baseline of bench.tracing_overhead_frac.
PoolRun RunOnOwnPool(const FleetSpec& spec, const std::vector<Shard>& shards,
                     const trace::MmapTrace* trace_file,
                     const std::vector<VideoRenaming>& renamings, bool traced,
                     std::vector<std::unique_ptr<SpanLog>>* logs) {
  PoolRun run;
  run.shards.resize(shards.size());
  std::vector<sim::ReplayResult> results(shards.size());
  std::optional<exec::ThreadPool> generator_pool;
  if (!spec.mmap) {
    generator_pool.emplace(kGeneratorThreads);
  }
  if (traced) {
    logs->clear();
    for (const Shard& shard : shards) {
      logs->push_back(std::make_unique<SpanLog>(shard.name, kSpanSampleEvery));
    }
  }
  const core::CacheConfig config = CacheConfigFor(spec);
  exec::ThreadPool pool(kReplayWorkers);
  exec::Latch done(shards.size());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < shards.size(); ++i) {
    pool.Submit([&, i] {
      const Shard& shard = shards[i];
      SpanLog* log = traced ? (*logs)[i].get() : nullptr;
      const int64_t shard_start = NowNs();
      const uint32_t parent =
          traced ? log->Open(SpanName::kReplayStream, kNoParent, i, shard_start) : kNoParent;
      std::unique_ptr<core::CacheAlgorithm> cache = core::MakeCache(shard.kind, config);
      TracedCache* traced_cache = nullptr;
      if (traced) {
        auto wrapper = std::make_unique<TracedCache>(std::move(cache), log, parent);
        traced_cache = wrapper.get();
        cache = std::move(wrapper);
      }
      std::unique_ptr<trace::RequestStream> stream = MakeServerStream(
          shard, trace_file, generator_pool.has_value() ? &*generator_pool : nullptr, nullptr,
          renamings);
      StreamProbe* probe = nullptr;
      if (traced) {
        auto wrapper = std::make_unique<StreamProbe>(std::move(stream), log, parent, nullptr);
        probe = wrapper.get();
        stream = std::move(wrapper);
      }
      sim::ReplayOptions options;
      options.batch_size = kBatch;
      std::optional<Telemetry> telemetry;
      if (spec.telemetry) {
        telemetry.emplace();
        telemetry->Attach(options, shard.name);
      }
      results[i] = sim::ReplayStream(*cache, *stream, options);
      const int64_t shard_end = NowNs();
      ShardTrace& out = run.shards[i];
      out.wall_s = static_cast<double>(shard_end - shard_start) * 1e-9;
      if (traced) {
        log->Close(parent, shard_end);
        out.next_ns = probe->next_ns();
        out.cache = traced_cache->Finish();
      }
      done.CountDown();
    });
  }
  done.Wait();
  run.wall_s = SecondsSince(start);
  pool.Shutdown();

  sim::FleetResult fleet;
  fleet.servers = std::move(results);
  for (const sim::ReplayResult& server : fleet.servers) {
    fleet.totals.Add(server.totals);
    fleet.steady.Add(server.steady);
  }
  run.digest = sim::FleetDigest(fleet);
  run.requests = fleet.totals.requests;
  return run;
}

// obs.replay_overhead_frac: one shard (the smallest server's Cafe) replayed
// from memory with series + flight attached vs detached, alternating.
double MeasureObsOverhead(const FleetSpec& spec, const std::vector<Shard>& shards) {
  size_t pick = 1;
  for (size_t i = 1; i < shards.size(); i += 2) {
    if (shards[i].workload.profile.base_request_rate <
        shards[pick].workload.profile.base_request_rate) {
      pick = i;
    }
  }
  const trace::Trace trace = trace::WorkloadGenerator(shards[pick].workload).Generate().trace;
  const core::CacheConfig config = CacheConfigFor(spec);
  std::vector<double> attached;
  std::vector<double> detached;
  for (int round = 0; round < 3; ++round) {
    for (bool with_obs : {false, true}) {
      auto cache = core::MakeCache(shards[pick].kind, config);
      sim::ReplayOptions options;
      options.batch_size = kBatch;
      Telemetry telemetry;
      if (with_obs) {
        telemetry.Attach(options, shards[pick].name);
      }
      (with_obs ? attached : detached).push_back(sim::Replay(*cache, trace, options).wall_seconds);
    }
  }
  return Median(attached) / Median(detached) - 1.0;
}

void PrintLatency(const char* label, std::vector<float>& samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // The deepest percentile with at least ten samples beyond it.
  const double deepest = n > 10 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
  std::printf("%s: %zu samples  p50 %.4f us  p99 %.4f us  p%.4g %.4f us\n", label, n,
              SortedPercentile(samples, 0.50), SortedPercentile(samples, 0.99), deepest * 100.0,
              SortedPercentile(samples, deepest));
}

}  // namespace

RunOutcome RunFleetWorkload(const Args& args, Report& report) {
  const FleetSpec& spec = args.workload == kMmapSpec.workload ? kMmapSpec : kChurnSpec;
  RunOutcome outcome;
  PrintMeta(args, {{"replay_workers", kReplayWorkers},
                   {"generator_threads", spec.mmap ? 0 : kGeneratorThreads},
                   {"reference_threads", kReferenceThreads},
                   {"batch", kBatch}});
  const std::vector<Shard> shards = MakeShards();
  const std::string trace_path =
      args.workdir + "/" + spec.workload + "-seed" + std::to_string(args.seed) + ".trs2";

  // ---- set-up, repeated; setup_s is the median ----
  std::vector<SetupRun> setups;
  const size_t setup_repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t k = 0; k < setup_repeats; ++k) {
    std::string error;
    setups.push_back(SetUpOnce(spec, shards, args.seed, trace_path, &error));
    if (!error.empty()) {
      std::printf("set-up failed: %s\n", error.c_str());
      outcome.correct = false;
      return outcome;
    }
    std::printf("set-up %zu: %.3f s (generate %.3f, pack %.3f, validate %.3f, reference %.3f), "
                "reference digest %s\n",
                k + 1, setups.back().total_s, setups.back().generate_s, setups.back().pack_s,
                setups.back().validate_s, setups.back().reference_s,
                HexDigest(setups.back().reference_digest).c_str());
  }
  const uint64_t reference = setups.front().reference_digest;
  const std::vector<VideoRenaming>& renamings = setups.front().renamings;
  for (const SetupRun& setup : setups) {
    if (setup.reference_digest != reference) {
      std::printf("reference digests differ between set-ups\n");
      outcome.correct = false;
    }
  }
  if (args.seed == 1 && reference != spec.seed1_digest) {
    std::printf("seed-1 reference %s != committed %s\n", HexDigest(reference).c_str(),
                HexDigest(spec.seed1_digest).c_str());
    outcome.correct = false;
  }

  std::optional<trace::MmapTrace> trace_file;
  if (spec.mmap) {
    util::Result<trace::MmapTrace> mapped = trace::MmapTrace::Open(trace_path);
    if (!mapped.ok()) {
      std::printf("cannot reopen the packed trace\n");
      outcome.correct = false;
      return outcome;
    }
    trace_file.emplace(std::move(mapped).value());
  }
  const trace::MmapTrace* file = trace_file.has_value() ? &*trace_file : nullptr;

  auto verify = [&](uint64_t digest, uint64_t requests, const char* what) {
    outcome.attempted += requests;
    if (digest != reference) {
      std::printf("%s digest %s != reference %s\n", what, HexDigest(digest).c_str(),
                  HexDigest(reference).c_str());
      outcome.failed += requests;
      outcome.correct = false;
    }
  };

  if (!args.trace) {
    // ---- untraced timed runs ----
    ResetPeakRss();
    std::vector<FleetRun> runs;
    std::vector<float> latency_us;
    std::vector<double> rep_p50;
    std::vector<double> rep_p99;
    const Clock::time_point timed_start = Clock::now();
    while (runs.size() < kMinTimedRepeats || SecondsSince(timed_start) < args.seconds) {
      std::vector<float> rep_latency;
      runs.push_back(RunFleetOnce(spec, shards, file, renamings, &rep_latency));
      std::sort(rep_latency.begin(), rep_latency.end());
      rep_p50.push_back(runs.back().cafe_p50_us);
      rep_p99.push_back(SortedPercentile(rep_latency, 0.99));
      latency_us.insert(latency_us.end(), rep_latency.begin(), rep_latency.end());
      const FleetRun& run = runs.back();
      verify(run.digest, run.requests, "timed run");
      std::printf("run %zu: %llu decisions in %.3f s (%.0f req/s), cpu %.3f s, host steal %llu "
                  "ticks, digest %s\n",
                  runs.size(), static_cast<unsigned long long>(run.requests), run.wall_s,
                  static_cast<double>(run.requests) / run.wall_s, run.cpu_s,
                  static_cast<unsigned long long>(run.steal_ticks), HexDigest(run.digest).c_str());
    }
    // The figures come from the half of the repeats during which the host
    // stole the least CPU per second: a neighbour's burst of a few seconds
    // then slows a repeat, not the run.
    std::vector<size_t> quiet(runs.size());
    for (size_t i = 0; i < quiet.size(); ++i) {
      quiet[i] = i;
    }
    auto steal_rate = [&](size_t i) {
      return static_cast<double>(runs[i].steal_ticks) / runs[i].wall_s;
    };
    std::stable_sort(quiet.begin(), quiet.end(),
                     [&](size_t a, size_t b) { return steal_rate(a) < steal_rate(b); });
    quiet.resize((runs.size() + 1) / 2);
    std::sort(quiet.begin(), quiet.end());
    const double peak_rss = PeakRssMb();
    std::vector<double> setup_s;
    std::vector<double> rps;
    std::vector<double> cpu_ns;
    for (const SetupRun& setup : setups) {
      setup_s.push_back(setup.total_s);
    }
    std::string used;
    for (const size_t i : quiet) {
      const FleetRun& run = runs[i];
      rps.push_back(static_cast<double>(run.requests) / run.wall_s);
      cpu_ns.push_back(run.cpu_s * 1e9 / static_cast<double>(run.requests));
      used += " " + std::to_string(i + 1);
    }
    PrintLatency("Cafe's per-request decision time (per 4096-request span)", latency_us);
    std::printf("\nMedian and quartiles over this run's set-ups and its quieter repeats (%s):\n",
                used.c_str() + 1);
    report.AddMedian("setup_s", setup_s, "s");
    report.AddMedian("replay_rps", rps, "req/s");
    report.AddMedian("cpu_ns_per_req", cpu_ns, "ns");
    report.Add("peak_rss_mb", peak_rss, "MiB");
    report.Add("efficiency_cafe",
               AlgorithmEfficiency(runs.front().result, shards, core::CacheKind::kCafe),
               "fraction");
    report.Add("efficiency_xlru",
               AlgorithmEfficiency(runs.front().result, shards, core::CacheKind::kXlru),
               "fraction");
    report.Add("ok_rate", outcome.OkRate(), "fraction");
    // Latency: the lower quartile over all repeats, their quietest quarter.
    // A stall inflates the decision times around it, so a repeat's tail
    // moves with the host more than its throughput does.
    report.Add("latency_p50_us", QuartilesOf(rep_p50).q1, "us");
    report.Add("latency_p99_us", QuartilesOf(rep_p99).q1, "us");
    std::remove(trace_path.c_str());
    return outcome;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<float> latency_us;
  const FleetRun fleet = RunFleetOnce(spec, shards, file, renamings, &latency_us);
  verify(fleet.digest, fleet.requests, "untraced RunFleet");
  // Bare and traced runs alternate (bare, traced, traced, bare) so a slow
  // stretch of a shared box lands on both sides of the overhead.
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<double> bare_s;
  std::vector<double> traced_s;
  PoolRun traced;
  for (const bool with_spans : {false, true, true, false}) {
    PoolRun run = RunOnOwnPool(spec, shards, file, renamings, with_spans, &logs);
    verify(run.digest, run.requests, with_spans ? "traced run" : "untraced own-pool run");
    (with_spans ? traced_s : bare_s).push_back(run.wall_s);
    if (with_spans) {
      traced = std::move(run);
    }
  }
  const double obs_overhead = MeasureObsOverhead(spec, shards);
  std::printf("RunFleet %.3f s; own pool untraced %.3f / %.3f s, traced %.3f / %.3f s\n",
              fleet.wall_s, bare_s[0], bare_s[1], traced_s[0], traced_s[1]);

  uint64_t next_ns = 0;
  uint64_t batch_ns = 0;
  double shard_wall_s = 0.0;
  CacheLayerTotals cafe;
  CacheLayerTotals xlru;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardTrace& shard = traced.shards[i];
    next_ns += shard.next_ns;
    batch_ns += shard.cache.ns;
    shard_wall_s += shard.wall_s;
    (shards[i].kind == core::CacheKind::kCafe ? cafe : xlru).Add(shard.cache);
  }
  const double requests = static_cast<double>(traced.requests);
  auto per_req = [](double total, uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  double fleet_loop_s = 0.0;
  for (const sim::ReplayResult& server : fleet.result.servers) {
    fleet_loop_s += server.wall_seconds;
  }
  const sim::ReplayTotals& totals = fleet.result.totals;
  const double hit_chunks = static_cast<double>(totals.requested_chunks) -
                            static_cast<double>(totals.redirected_chunks) -
                            static_cast<double>(totals.unavailable_chunks) -
                            static_cast<double>(totals.filled_chunks) +
                            static_cast<double>(totals.proactive_filled_chunks);

  // The split each fleet was chosen for. Producer work: time in Next() plus
  // time generating, against the untraced fleet run's process CPU; cache
  // work: time in HandleRequestBatch against the shards' replay time.
  const double producer_share =
      (static_cast<double>(next_ns) * 1e-9 + fleet.generate_s) / fleet.cpu_s;
  const double cache_share = static_cast<double>(batch_ns) * 1e-9 / shard_wall_s;
  std::printf("split: producer %.1f%% of fleet CPU, cache decisions %.1f%% of replay time\n",
              100.0 * producer_share, 100.0 * cache_share);
  // The split is a property of the workload, not of the outputs: a miss is
  // reported, not counted against the run.
  const bool split_ok = spec.mmap ? producer_share < 0.02 && cache_share > 0.5
                                  : producer_share > 0.10;
  if (!split_ok) {
    std::printf("split check FAILED for %s\n", spec.workload);
  }

  report.Add("trace.next_ns_per_req", static_cast<double>(next_ns) / requests, "ns");
  report.Add("trace.generate_s", fleet.generate_s, "s");
  report.Add("trace.consumer_wait_s", fleet.consumer_wait_s, "s");
  report.Add("trace.setup_generate_s", setups.front().generate_s, "s");
  report.Add("trace.setup_pack_s", setups.front().pack_s, "s");
  report.Add("trace.setup_validate_s", setups.front().validate_s, "s");
  AddCacheLayerMetrics(report, cafe, xlru);
  report.Add("core.hit_chunk_frac", hit_chunks / static_cast<double>(totals.requested_chunks),
             "fraction");
  report.Add("core.fill_chunks_per_req",
             per_req(static_cast<double>(totals.filled_chunks), totals.requests), "count");
  report.Add("core.evicted_chunks_per_req",
             per_req(static_cast<double>(totals.evicted_chunks), totals.requests), "count");
  report.Add("core.redirect_frac", totals.RedirectFraction(), "fraction");
  report.Add("sim.self_ns_per_req",
             (shard_wall_s * 1e9 - static_cast<double>(next_ns) - static_cast<double>(batch_ns)) /
                 requests,
             "ns");
  report.Add("exec.fleet_imbalance",
             fleet.wall_s * static_cast<double>(kReplayWorkers) / fleet_loop_s, "ratio");
  report.Add("exec.pool_tasks_per_req",
             per_req(static_cast<double>(fleet.pool.executed), fleet.requests), "count");
  report.Add("exec.pool_stolen_frac",
             per_req(static_cast<double>(fleet.pool.stolen), fleet.pool.executed), "fraction");
  // The net layer does no work on the fleets.
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"net.server_cpu_ns_per_req", "ns"},
           {"net.client_cpu_ns_per_req", "ns"},
           {"net.ctx_switches_per_req", "count"},
           {"net.serve_allocs_per_req", "count"},
           {"net.cache_ns_per_req", "ns"},
           {"net.client_syscalls_per_req", "count"},
           {"net.gen_lateness_p99_us", "us"},
           {"net.backlog_max", "count"},
           {"net.slo_rate_rps", "req/s"},
           {"net.peak_rps", "req/s"}}) {
    report.Add(name, 0.0, unit);
  }
  report.Add("obs.replay_overhead_frac", obs_overhead, "fraction");
  report.Add("bench.tracing_overhead_frac", Median(traced_s) / Median(bare_s) - 1.0, "fraction");

  std::vector<const SpanLog*> views;
  for (const auto& log : logs) {
    views.push_back(log.get());
  }
  const std::string span_path =
      args.workdir + "/spans-" + spec.workload + "-seed" + std::to_string(args.seed) + ".jsonl";
  if (WriteSpans(span_path, views)) {
    std::printf("spans written to %s\n", span_path.c_str());
  }
  std::remove(trace_path.c_str());
  return outcome;
}

}  // namespace perfbench
