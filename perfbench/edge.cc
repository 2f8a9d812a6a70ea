// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// edge-openloop: net::EdgeServer in this process over loopback, serving Cafe
// on 2 shards (1 paper-TB, alpha_F2R = 2, client-time mode) on a 2-worker
// exec::ThreadPool with a metrics registry attached. One client thread sends
// bench_net_loopback's rate-pinned single-server trace OPEN-LOOP: every
// request has a scheduled send time, and its latency is measured from that
// time, so a stalled server is charged for the queue it builds (no
// coordinated omission).
//
// The client opens one connection per shard and sends request i on
// connection (video % shards) -- the daemon's own routing -- so each shard
// sees its requests in trace order and its decisions can be digest-checked
// against an offline replay of the same subsequence. The trace is the
// seed-1 month; --seed renames its videos (perfbench/rename.h).
//
// The client sends on a fixed tick of kTickNs: at each tick it encodes every
// frame whose scheduled time has come and writes them in one write per
// connection, as a front end multiplexing many viewers onto one connection
// would. Between ticks it only reads responses.
//
// The timed plan (S = --seconds):
//   warm-up   0.05 S at kFixedRate
//   fixed     0.10 S at kFixedRate, as kFixedSegments segments with idle
//             gaps between them   -> latency_p50_us, latency_p99_us (lower
//                                    quartile over 2 ms windows), replay_rps
//                                    (the rate delivered), cpu_ns_per_req,
//                                    all from the quietest segments;
//                                    efficiency_* from the first
//   kLadders x a ladder of up to kLadderSteps steps of 0.1 s at
//              kFixedRate x kLadderStart x kLadderGrowth^k, after every
//              kFixedSegments / kLadders segments
//                                 -> net.slo_rate_rps, net.peak_rps
// Each segment and each ladder starts only once every response of what came
// before has arrived (a drain barrier), so none inherits a backlog; within
// a ladder the steps run back to back.
//
// Every phase is cut into equal windows of consecutive requests and judged
// by the MEDIAN of its windows' p99s: on a shared 4-vCPU box the process
// sees multi-millisecond stalls several times a second, which spoil a
// window, not a phase, while a daemon past its knee spoils every window.
// A step passes when that p99 is <= 1 ms and the backlog's floor did not
// grow across the step. A ladder ends after kStopAfterFailures failed steps
// in a row. Its SLO rate is the achieved rate of its highest passing step,
// and it is valid only if the failed step just above that step ran with the
// generator on schedule (and a failed step exists: a ladder that passed
// every step measured its own ceiling). A stall only ever ends a ladder
// early, so net.slo_rate_rps is the best valid ladder's rate: the highest
// rate the daemon demonstrably sustained within the limit. net.peak_rps is
// the highest rate the daemon delivered on any step.
//
// The ladders' rates are per-layer metrics, not end-to-end ones: on a shared
// 4-vCPU host the daemon's capacity halves whenever the neighbours take a
// few percent of the CPUs (the SLO rate ranged 0.5-1.3 M req/s over ten
// runs of the same code), while the fixed phase, well below capacity, stays
// within a few percent.
//
// Only the outputs decide whether a run is correct: every request answered
// and each shard's wire digest equal to the offline replay. The timing
// verdicts decide the numbers. Should no ladder be valid (a run spent wholly
// on a slowed host), net.slo_rate_rps falls back to the best ladder's
// highest passing step, or the fixed phase's achieved rate, and the run
// says so.

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/rename.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/core/cache_factory.h"
#include "src/exec/future.h"
#include "src/exec/thread_pool.h"
#include "src/net/edge_server.h"
#include "src/net/load_gen.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/net/wire_buffer.h"
#include "src/obs/metrics.h"
#include "src/sim/decision_digest.h"
#include "src/sim/metrics.h"
#include "src/trace/server_profile.h"
#include "src/trace/workload_generator.h"

namespace perfbench {

namespace {

using namespace vcdn;

// bench_net_loopback's throughput trace: the first paper profile at workload
// scale 0.25 with the arrival rate pinned to 0.25 req per simulated second.
// The trace is generated as long as the plan needs.
constexpr double kProfileScale = 0.25;
constexpr double kPinnedRate = 0.25;
constexpr uint64_t kWorkloadSeed = 1;
constexpr size_t kShards = 2;
constexpr size_t kPoolWorkers = 2;
constexpr size_t kSetupThreads = 4;
constexpr size_t kSetupRepeats = 3;
constexpr double kAlpha = 2.0;
constexpr uint64_t kDiskChunks = 4096;  // 1 paper-TB
// Offered rate of the warm-up and fixed phases: about a fifth of the SLO
// rate the ladders measure on a quiet 4-vCPU Xeon (1.0-1.3 M req/s), so the
// daemon keeps up even while the host's neighbours cut its capacity to
// 0.3-0.45 M req/s. At 500 K req/s such stretches left it backlogged.
constexpr double kFixedRate = 250000.0;
// 100 us ticks carry ~25 frames at the fixed rate. A 20 us tick doubled the
// CPU per request (one daemon wake-up per few frames) and with it the
// run-to-run spread; a 200 us tick left the net and exec layers less of
// the server's CPU than the cache.
constexpr int64_t kTickNs = 100000;
// Ladders start at the fixed rate, which a host slowed by its neighbours
// still sustains, and climb until the daemon fails.
constexpr double kLadderStart = 1.0;
constexpr double kLadderGrowth = 1.1;
constexpr size_t kLadders = 3;
constexpr size_t kLadderSteps = 23;  // the top step offers 8x kFixedRate
constexpr size_t kStopAfterFailures = 2;
constexpr double kStepSeconds = 0.1;
// A drain barrier that has not drained after this long fails the run.
constexpr int64_t kDrainLimitNs = 20'000'000'000LL;
// Windows of 10 ms on a step. The fixed phase's latency is read from 2 ms
// windows: each holds ~500 requests, and a host stall spoils a smaller
// share of short windows, which the lower quartile then leaves out.
constexpr size_t kStepWindows = 10;
constexpr double kFixedWindowSeconds = 0.002;
// The fixed phase runs as segments spread over the timed run, each after an
// idle gap, so that together they span about 0.6 x --seconds. Its figures
// come from the quarter of them during which the host stole the least CPU
// from this machine (steal time in /proc/stat): the neighbours take CPU in
// bursts of 5-45 s with lulls between, and a burst then spoils segments,
// not the run.
constexpr size_t kFixedSegments = 12;
constexpr size_t kQuietSegments = 3;
constexpr double kSegmentGapShare = 0.6;
constexpr double kLatencyLimitUs = 1000.0;
// The generator is on schedule while its lateness p99 stays below this.
constexpr double kLatenessLimitUs = 400.0;
constexpr size_t kBatch = 16;
constexpr size_t kSpanSampleEvery = 64;
// The one-connection bridge (bench_net_loopback phase 1) digest at seed 1.
constexpr uint64_t kBridgeSeed1Digest = 0x83b283f9d78b9270ULL;

core::CacheConfig DaemonCacheConfig() {
  core::CacheConfig config;
  config.chunk_bytes = core::kDefaultChunkBytes;
  config.disk_capacity_chunks = kDiskChunks;
  config.alpha_f2r = kAlpha;
  return config;
}

trace::Trace MakeNetTrace(double profile_scale, uint64_t seed, double rate, double duration) {
  trace::WorkloadConfig config;
  config.profile = trace::PaperServerProfiles(profile_scale)[0];
  config.profile.base_request_rate = rate;
  config.seed = seed;
  config.duration_seconds = duration;
  return trace::WorkloadGenerator(config).Generate().trace;
}

// ---- the open-loop plan ------------------------------------------------------

struct PhaseSpec {
  std::string name;
  int ladder = -1;  // ladder index for ladder steps, -1 otherwise
  double rate = 0.0;
  size_t count = 0;
  size_t windows = 1;
  bool drain_first = false;  // starts once every earlier response has arrived
  double idle_first_s = 0.0;  // and, behind the barrier, after this long idle
  bool fixed = false;         // a segment of the fixed-rate phase
};

std::vector<PhaseSpec> MakePlan(double seconds) {
  std::vector<PhaseSpec> plan;
  auto add = [&](std::string name, int ladder, double rate, double phase_seconds,
                 size_t windows, bool drain_first, double idle_first_s, bool fixed) {
    const size_t count = static_cast<size_t>(std::llround(rate * phase_seconds));
    plan.push_back(PhaseSpec{std::move(name), ladder, rate, std::max(windows, count), windows,
                             drain_first, idle_first_s, fixed});
  };
  add("warmup", -1, kFixedRate, 0.05 * seconds, 1, false, 0.0, false);
  // The fixed phase is cut into segments spread between the ladders.
  const double segments = static_cast<double>(kFixedSegments);
  const double segment_seconds = 0.1 * seconds / segments;
  const double gap_seconds = kSegmentGapShare * seconds / segments;
  const size_t segment_windows =
      std::max<size_t>(1, static_cast<size_t>(segment_seconds / kFixedWindowSeconds));
  size_t ladder = 0;
  for (size_t f = 0; f < kFixedSegments; ++f) {
    add("fixed" + std::to_string(f), -1, kFixedRate, segment_seconds, segment_windows, true,
        f == 0 ? 0.0 : gap_seconds, true);
    if (f % (kFixedSegments / kLadders) != 0 || ladder == kLadders) {
      continue;
    }
    double rate = kFixedRate * kLadderStart;
    for (size_t k = 0; k < kLadderSteps; ++k) {
      char name[32];
      std::snprintf(name, sizeof(name), "L%zu.step%zu", ladder, k);
      add(name, static_cast<int>(ladder), rate, kStepSeconds, kStepWindows, k == 0, 0.0, false);
      rate *= kLadderGrowth;
    }
    ++ladder;
  }
  return plan;
}

size_t PlanRequests(const std::vector<PhaseSpec>& plan) {
  size_t total = 0;
  for (const PhaseSpec& spec : plan) {
    total += spec.count;
  }
  return total;
}

// Requests [0, FixedEnd) are the warm-up and the first fixed segment, which
// always run in full: the prefix the efficiencies are measured over.
size_t FixedEnd(const std::vector<PhaseSpec>& plan) { return plan[0].count + plan[1].count; }

// A phase as it actually ran: requests [begin, begin + spec.count), the
// first due `start_ns` after the run's time zero. Phases run back to back
// over contiguous trace requests; a ladder that ends early skips its
// remaining steps, not their requests.
struct RanPhase {
  size_t spec = 0;
  size_t begin = 0;
  int64_t start_ns = 0;
};

// ---- set-up ------------------------------------------------------------------

// Relabels video ids so the two shards receive equal request counts. With
// `video % shards` routing, which shard a few of the hottest videos land on
// would otherwise set the daemon's capacity (one strand per shard), and
// the ladders would measure id parity instead of the serve path. Videos are
// assigned hottest first to the lighter shard; within a shard the seed then
// renames them (the shard, i.e. id % shards, is kept). Ids are only labels to
// the caches, so the relabeled trace is as valid a workload as the original.
void BalanceShards(trace::Trace& trace, uint64_t seed) {
  std::unordered_map<uint64_t, uint64_t> counts;
  for (const trace::Request& request : trace.requests) {
    ++counts[request.video];
  }
  std::vector<std::pair<uint64_t, uint64_t>> by_heat(counts.begin(), counts.end());
  std::sort(by_heat.begin(), by_heat.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  uint64_t load[kShards] = {};
  uint64_t assigned[kShards] = {};
  std::unordered_map<uint64_t, std::pair<size_t, uint64_t>> shard_rank;
  shard_rank.reserve(by_heat.size());
  for (const auto& [video, count] : by_heat) {
    const size_t shard = static_cast<size_t>(std::min_element(load, load + kShards) - load);
    shard_rank[video] = {shard, assigned[shard]++};
    load[shard] += count;
  }
  VideoRenaming renamings[kShards];
  for (size_t s = 0; s < kShards; ++s) {
    renamings[s] = VideoRenaming::ForSeed(seed, s, assigned[s]);
  }
  for (trace::Request& request : trace.requests) {
    const auto [shard, rank] = shard_rank[request.video];
    request.video = renamings[shard](rank) * kShards + shard;
  }
}

std::unique_ptr<exec::ThreadPool> MakeDaemonPool(obs::MetricsRegistry& registry) {
  exec::ThreadPoolOptions options;
  options.num_threads = kPoolWorkers;
  options.metrics = &registry;
  return std::make_unique<exec::ThreadPool>(options);
}

std::unique_ptr<net::EdgeServer> StartDaemon(exec::ThreadPool& pool,
                                             obs::MetricsRegistry& registry) {
  net::EdgeServerOptions options;
  options.num_shards = kShards;
  options.cache_kind = core::CacheKind::kCafe;
  options.cache_config = DaemonCacheConfig();
  options.use_client_time = true;
  options.metrics = &registry;
  auto server = std::make_unique<net::EdgeServer>(pool, options);
  if (!server->Start().ok()) {
    return nullptr;
  }
  return server;
}

// Runs bench_net_loopback's one-connection bridge against a fresh one-shard
// daemon: the wire digest must equal the offline replay of the same trace.
bool RunBridge(exec::ThreadPool& pool, uint64_t seed, uint64_t* digest_out) {
  const trace::Trace bridge = MakeNetTrace(0.02, seed + 17, 4.0, 2.0 * 3600.0);
  core::CacheConfig config;
  config.disk_capacity_chunks = 4096;
  const uint64_t offline = sim::ReplayOutcomeDigest(core::CacheKind::kCafe, config, bridge);
  net::EdgeServerOptions options;
  options.cache_kind = core::CacheKind::kCafe;
  options.cache_config = config;
  options.num_shards = 1;
  net::EdgeServer server(pool, options);
  if (!server.Start().ok()) {
    return false;
  }
  net::LoadGenOptions load;
  load.connections = 1;
  load.pipeline_depth = 64;
  load.port = server.port();
  util::Result<net::LoadGenResult> result = net::RunClosedLoop(bridge, load);
  server.Stop();
  *digest_out = offline;
  return result.ok() && result.value().digest == offline &&
         result.value().responses_received == bridge.requests.size();
}

struct Setup {
  double total_s = 0.0;
  double generate_s = 0.0;
  double bridge_s = 0.0;
  double start_s = 0.0;
  uint64_t bridge_digest = 0;
  bool bridge_ok = false;
  trace::Trace trace;
  // The daemon the timed run talks to, started last (the server must be
  // destroyed before its pool).
  obs::MetricsRegistry registry;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<net::EdgeServer> server;
};

// One set-up: the trace, the bridge, a fresh daemon. The per-shard offline
// references cover exactly the prefix a timed run sends, which the ladders'
// early ends decide, so they are replayed after the run (ReplayReferences).
void SetUpOnce(const Args& args, size_t needed, Setup& setup) {
  const Clock::time_point start = Clock::now();
  // Trace: long enough for the whole plan, cut to it, shards balanced.
  Clock::time_point phase_start = Clock::now();
  double duration = static_cast<double>(needed) / kPinnedRate * 1.15;
  for (;;) {
    setup.trace = MakeNetTrace(kProfileScale, kWorkloadSeed, kPinnedRate, duration);
    if (setup.trace.requests.size() >= needed) {
      break;
    }
    duration *= 1.25;
  }
  setup.trace.requests.resize(needed);
  BalanceShards(setup.trace, args.seed);
  setup.generate_s = SecondsSince(phase_start);

  phase_start = Clock::now();
  setup.server.reset();
  setup.pool = MakeDaemonPool(setup.registry);
  setup.bridge_ok = RunBridge(*setup.pool, args.seed, &setup.bridge_digest);
  setup.bridge_s = SecondsSince(phase_start);

  phase_start = Clock::now();
  setup.server = StartDaemon(*setup.pool, setup.registry);
  setup.start_s = SecondsSince(phase_start);
  setup.total_s = SecondsSince(start);
}

// ---- offline references ------------------------------------------------------

// One shard's requests replayed offline through one algorithm, with the
// state recorded after each cut.
struct ShardReference {
  std::vector<uint64_t> counts;   // per cut
  std::vector<uint64_t> digests;  // OutcomeDigest at that point
  std::vector<sim::ReplayTotals> totals;
  CacheLayerTotals cache;  // traced runs only
};

// Replays the shard's requests among trace[0, cuts.back()) in batches,
// recording the state after each global index in `cuts` (ascending): the
// prefixes the timed runs actually sent.
ShardReference ReplayShardOffline(const trace::Trace& trace, const std::vector<size_t>& cuts,
                                  size_t shard, core::CacheKind kind, SpanLog* log) {
  ShardReference ref;
  std::unique_ptr<core::CacheAlgorithm> cache = core::MakeCache(kind, DaemonCacheConfig());
  TracedCache* traced = nullptr;
  if (log != nullptr) {
    auto wrapper = std::make_unique<TracedCache>(std::move(cache), log, kNoParent);
    traced = wrapper.get();
    cache = std::move(wrapper);
  }
  sim::OutcomeDigest digest;
  sim::ReplayTotals totals;
  std::vector<trace::Request> batch;
  batch.reserve(kBatch);
  std::vector<core::RequestOutcome> outcomes(kBatch);
  const uint64_t chunk_bytes = cache->config().chunk_bytes;
  auto drain = [&] {
    if (batch.empty()) {
      return;
    }
    cache->HandleRequestBatch(batch.data(), batch.size(), outcomes.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      digest.Fold(outcomes[i]);
      totals.Accumulate(outcomes[i], chunk_bytes);
    }
    batch.clear();
  };
  size_t begin = 0;
  for (const size_t cut : cuts) {
    for (size_t i = begin; i < cut; ++i) {
      if (trace.requests[i].video % kShards != shard) {
        continue;
      }
      batch.push_back(trace.requests[i]);
      if (batch.size() == kBatch) {
        drain();
      }
    }
    drain();
    begin = cut;
    ref.counts.push_back(digest.count());
    ref.digests.push_back(digest.value());
    ref.totals.push_back(totals);
  }
  if (traced != nullptr) {
    ref.cache = traced->Finish();
  }
  return ref;
}

// Cafe (the daemon's algorithm, digest-checked) and xLRU (efficiency_xlru on
// the same traffic) for both shards: four independent replays.
struct References {
  std::vector<ShardReference> cafe;  // [shard]
  std::vector<ShardReference> xlru;
  std::vector<std::unique_ptr<SpanLog>> logs;  // traced runs only
};

References ReplayReferences(const trace::Trace& trace, const std::vector<size_t>& cuts,
                            bool traced) {
  References refs;
  refs.cafe.resize(kShards);
  refs.xlru.resize(kShards);
  for (size_t i = 0; traced && i < 2 * kShards; ++i) {
    refs.logs.push_back(std::make_unique<SpanLog>(
        "offline.shard" + std::to_string(i / 2) + (i % 2 == 0 ? ".cafe" : ".xlru"),
        kSpanSampleEvery));
  }
  exec::ThreadPool workers(kSetupThreads);
  exec::Latch done(2 * kShards);
  for (size_t i = 0; i < 2 * kShards; ++i) {
    workers.Submit([&, i] {
      const bool cafe = i % 2 == 0;
      (cafe ? refs.cafe : refs.xlru)[i / 2] = ReplayShardOffline(
          trace, cuts, i / 2, cafe ? core::CacheKind::kCafe : core::CacheKind::kXlru,
          traced ? refs.logs[i].get() : nullptr);
      done.CountDown();
    });
  }
  done.Wait();
  return refs;
}

// ---- the open-loop client ----------------------------------------------------

struct StageTotals {
  uint64_t encode_ns = 0;
  uint64_t write_ns = 0;
  uint64_t read_ns = 0;
  uint64_t decode_ns = 0;
};

// Process CPU time and host steal at one moment.
struct ProcessSnapshot {
  bool taken = false;
  double cpu_s = 0.0;
  uint64_t steal = 0;

  static ProcessSnapshot Take() { return {true, ReadProcessUsage().cpu_seconds, StealTicks()}; }
};

struct ClientRun {
  util::Status status = util::OkStatus();
  size_t sent = 0;  // requests [0, sent) were sent
  size_t received = 0;
  std::vector<RanPhase> phases;
  std::vector<float> latency_us;   // per request, from its scheduled send; < 0 = unanswered
  std::vector<float> lateness_us;  // per request, actual hand-off minus schedule
  // Per ran phase and window: the lowest number of outstanding requests seen
  // (the backlog's floor; a stall lifts the peak, a knee lifts the floor).
  std::vector<std::vector<int64_t>> backlog_floor;
  std::vector<uint64_t> backlog_max;  // per ran phase
  // Process CPU and host steal when each ran phase began and ended. A phase
  // ends where the next begins, or where the drain barrier after it
  // released, before any idle gap.
  std::vector<ProcessSnapshot> at_begin;
  std::vector<ProcessSnapshot> at_end;
  uint64_t conn_received[kShards] = {};
  uint64_t conn_digest[kShards] = {};
  sim::ReplayTotals wire_totals;
  sim::ReplayTotals fixed_totals;  // the warm-up and the first fixed segment
  uint64_t hit_chunks = 0;
  uint64_t syscalls = 0;
  double cpu_s = 0.0;  // the client thread's own CPU
  uint64_t next_ns = 0;
  StageTotals stages;

  // The ran phase holding request `index`.
  size_t PhaseOf(size_t index) const {
    size_t lo = 0;
    size_t hi = phases.size();
    while (hi - lo > 1) {
      const size_t mid = (lo + hi) / 2;
      (phases[mid].begin <= index ? lo : hi) = mid;
    }
    return lo;
  }
};

// The plan as a run is executing it: phase bounds, windows, send times.
class RunView {
 public:
  RunView(const std::vector<PhaseSpec>& plan, const ClientRun& run) : plan_(plan), run_(run) {}

  const PhaseSpec& Spec(size_t ran) const { return plan_[run_.phases[ran].spec]; }
  size_t End(size_t ran) const { return run_.phases[ran].begin + Spec(ran).count; }
  size_t WindowOf(size_t ran, size_t index) const {
    return (index - run_.phases[ran].begin) * Spec(ran).windows / Spec(ran).count;
  }
  size_t WindowBegin(size_t ran, size_t window) const {
    return run_.phases[ran].begin + window * Spec(ran).count / Spec(ran).windows;
  }
  int64_t SendTimeNs(size_t index, size_t ran) const {
    const RanPhase& phase = run_.phases[ran];
    return phase.start_ns + static_cast<int64_t>(static_cast<double>(index - phase.begin) * 1e9 /
                                                 plan_[phase.spec].rate);
  }
  int64_t SendTimeNs(size_t index) const { return SendTimeNs(index, run_.PhaseOf(index)); }

  // True once a majority of a ran step's windows are known to have a p99
  // above the limit: more than 1% of their requests answered late, or still
  // unanswered past the limit. Matches the final verdict.
  bool StepFailed(size_t ran, int64_t now) const {
    size_t bad_windows = 0;
    for (size_t w = 0; w < Spec(ran).windows; ++w) {
      const size_t begin = WindowBegin(ran, w);
      const size_t end = WindowBegin(ran, w + 1);
      size_t bad = 0;
      for (size_t i = begin; i < end; ++i) {
        const float latency = run_.latency_us[i];
        if (latency > static_cast<float>(kLatencyLimitUs) ||
            (latency < 0.0f &&
             static_cast<double>(now - SendTimeNs(i, ran)) > kLatencyLimitUs * 1e3)) {
          ++bad;
        }
      }
      if (static_cast<double>(bad) > 0.01 * static_cast<double>(end - begin)) {
        ++bad_windows;
      }
    }
    return 2 * bad_windows > Spec(ran).windows;
  }

  // The plan entry that follows the ran phase `ran` when it ends at `now`,
  // or plan_.size() when the run is over. A ladder whose last
  // kStopAfterFailures steps all failed skips to the next ladder.
  size_t Following(size_t ran, int64_t now) const {
    const int ladder = Spec(ran).ladder;
    size_t following = run_.phases[ran].spec + 1;
    if (ladder < 0 || ran + 1 < kStopAfterFailures) {
      return following;
    }
    for (size_t back = 0; back < kStopAfterFailures; ++back) {
      if (Spec(ran - back).ladder != ladder || !StepFailed(ran - back, now)) {
        return following;
      }
    }
    while (following < plan_.size() && plan_[following].ladder == ladder) {
      ++following;
    }
    return following;
  }

 private:
  const std::vector<PhaseSpec>& plan_;
  const ClientRun& run_;
};

ClientRun RunClient(const trace::Trace& trace, const std::vector<PhaseSpec>& plan, uint16_t port,
                    SpanLog* log) {
  ClientRun run;
  const RunView view(plan, run);
  const size_t total = trace.requests.size();
  const size_t fixed_end = FixedEnd(plan);
  run.latency_us.assign(total, -1.0f);
  run.lateness_us.assign(total, 0.0f);

  struct Conn {
    net::Socket sock;
    net::WireBuffer out{1 << 16};
    net::WireBuffer in{1 << 16};
    sim::OutcomeDigest digest;
  };
  Conn conns[kShards];
  for (Conn& conn : conns) {
    util::Result<net::Socket> connected = net::ConnectTcp("127.0.0.1", port);
    if (!connected.ok()) {
      run.status = connected.status();
      return run;
    }
    conn.sock = std::move(connected).value();
    if (!conn.sock.SetNonBlocking(true).ok()) {
      run.status = util::InternalError("cannot make the client socket non-blocking");
      return run;
    }
  }
  // Requests are pulled through the trace layer's stream interface.
  std::unique_ptr<trace::RequestStream> stream = std::make_unique<trace::TraceView>(trace);
  StreamProbe* probe = nullptr;
  if (log != nullptr) {
    auto wrapper = std::make_unique<StreamProbe>(std::move(stream), log, kNoParent, nullptr);
    probe = wrapper.get();
    stream = std::move(wrapper);
  }
  trace::RequestSpan span;
  size_t span_pos = 0;

  auto end_phase = [&] {
    if (!run.at_end.empty() && !run.at_end.back().taken) {
      run.at_end.back() = ProcessSnapshot::Take();
    }
  };
  auto begin_phase = [&](size_t spec, size_t begin, int64_t start_ns) {
    end_phase();
    run.at_begin.push_back(ProcessSnapshot::Take());
    run.at_end.emplace_back();
    run.phases.push_back(RanPhase{spec, begin, start_ns});
    run.backlog_floor.emplace_back(plan[spec].windows, INT64_MAX);
    run.backlog_max.push_back(0);
  };
  auto fail = [&](util::Status status) {
    if (run.status.ok()) {
      run.status = std::move(status);
    }
  };

  // Wake-ups land within ~1 us of the next tick instead of the default
  // 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  const double cpu_start = ThreadCpuSeconds();
  const int64_t zero = NowNs() + 2000000;  // first send 2 ms from now
  begin_phase(0, 0, 0);
  size_t next = 0;
  bool all_sent = false;
  int64_t send_at = 0;       // the next tick: due frames go out no earlier
  int64_t drain_since = -1;  // >= 0 while a drain barrier holds the next phase
  int64_t release_at = -1;   // >= 0 while an idle gap holds it after draining
  uint64_t tick = 0;
  net::DecodedFrame frame;
  const uint64_t chunk_bytes = core::kDefaultChunkBytes;

  // Backlog bookkeeping for the window of the newest request sent.
  auto note_backlog = [&] {
    if (next == 0) {
      return;
    }
    const size_t ran = run.phases.size() - 1;
    const size_t index = std::min(next - 1, view.End(ran) - 1);
    if (index < run.phases[ran].begin) {
      return;
    }
    const int64_t outstanding = static_cast<int64_t>(next - run.received);
    int64_t& floor = run.backlog_floor[ran][view.WindowOf(ran, index)];
    floor = std::min(floor, outstanding);
    run.backlog_max[ran] = std::max(run.backlog_max[ran], static_cast<uint64_t>(outstanding));
  };

  while (run.status.ok()) {
    const int64_t tick_start = NowNs();
    const int64_t now = tick_start - zero;
    const bool sampled = log != nullptr && log->Sampled(tick);
    const uint32_t tick_span =
        sampled ? log->Open(SpanName::kClientTick, kNoParent, tick, tick_start) : kNoParent;

    // On a tick, encode every frame that is due.
    int64_t stage_start = tick_start;
    const bool on_tick = !all_sent && now >= send_at;
    while (on_tick && !all_sent) {
      const size_t ran = run.phases.size() - 1;
      if (next == view.End(ran)) {
        const size_t following = view.Following(ran, now);
        if (following >= plan.size()) {
          all_sent = true;
          break;
        }
        // Back to back: the next phase is due when this one's schedule ends;
        // behind a drain barrier, once the backlog has drained and the
        // phase's idle gap has passed.
        int64_t start_ns = run.phases[ran].start_ns +
                           static_cast<int64_t>(static_cast<double>(view.Spec(ran).count) *
                                                1e9 / view.Spec(ran).rate);
        if (plan[following].drain_first) {
          if (run.received < next) {
            if (drain_since < 0) {
              drain_since = now;
            } else if (now - drain_since > kDrainLimitNs) {
              fail(util::DataLossError("the backlog did not drain"));
            }
            break;
          }
          if (release_at < 0) {
            end_phase();
            drain_since = -1;
            release_at = now + static_cast<int64_t>(plan[following].idle_first_s * 1e9);
          }
          if (now < release_at) {
            break;
          }
          release_at = -1;
          start_ns = now;
        }
        begin_phase(following, next, start_ns);
        continue;
      }
      const int64_t due = view.SendTimeNs(next, ran);
      if (due > now) {
        break;
      }
      if (span_pos == span.count) {
        span = stream->Next(1024);
        span_pos = 0;
        if (span.empty()) {
          fail(util::InternalError("trace shorter than the plan"));
          break;
        }
      }
      const trace::Request& request = span.data[span_pos++];
      net::RequestFrame wire;
      wire.request_id = next;
      wire.video = request.video;
      wire.byte_begin = request.byte_begin;
      wire.byte_end = request.byte_end;
      wire.arrival_time = request.arrival_time;
      net::AppendRequest(conns[request.video % kShards].out, wire);
      run.lateness_us[next] = static_cast<float>(static_cast<double>(now - due) * 1e-3);
      ++next;
    }
    if (on_tick) {
      send_at = (now / kTickNs + 1) * kTickNs;
    }
    note_backlog();
    int64_t stage_end = 0;
    if (log != nullptr) {
      stage_end = NowNs();
      run.stages.encode_ns += static_cast<uint64_t>(stage_end - stage_start);
      if (sampled) {
        log->Record(SpanName::kEncode, tick_span, tick, stage_start, stage_end);
      }
      stage_start = stage_end;
    }

    // One write per connection with pending frames.
    bool want_write = false;
    for (Conn& conn : conns) {
      while (conn.out.ReadableBytes() > 0) {
        const ssize_t n = conn.sock.WriteSome(conn.out.ReadPtr(), conn.out.ReadableBytes());
        ++run.syscalls;
        if (n > 0) {
          conn.out.ConsumeRead(static_cast<size_t>(n));
        } else if (n == 0) {
          want_write = true;  // socket buffer full: the daemon is behind
          break;
        } else {
          fail(util::DataLossError("write to the daemon failed"));
          break;
        }
      }
    }
    if (log != nullptr) {
      stage_end = NowNs();
      run.stages.write_ns += static_cast<uint64_t>(stage_end - stage_start);
      if (sampled) {
        log->Record(SpanName::kWrite, tick_span, tick, stage_start, stage_end);
      }
    }

    if (all_sent && run.received == next) {
      if (sampled) {
        log->Close(tick_span, NowNs());
      }
      break;
    }
    if (all_sent && now - view.SendTimeNs(next - 1) > 30'000'000'000LL) {
      fail(util::DataLossError("responses still missing 30 s after the last send"));
      break;
    }

    // Wait for responses or the first tick with a frame due, whichever is
    // first; behind a drain barrier, responses wake the loop.
    int64_t timeout_ns = 10'000'000;
    if (!all_sent) {
      if (drain_since >= 0) {
        timeout_ns = 1'000'000;
      } else if (release_at >= 0) {
        timeout_ns = std::max(send_at, release_at) - now;
      } else {
        timeout_ns = std::max(send_at, view.SendTimeNs(next)) - now;
      }
    }
    timeout_ns = std::max<int64_t>(0, timeout_ns);
    pollfd fds[kShards];
    for (size_t c = 0; c < kShards; ++c) {
      fds[c].fd = conns[c].sock.fd();
      fds[c].events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ppoll(fds, kShards, &ts, nullptr);
    ++run.syscalls;

    // Read and decode what arrived.
    for (size_t c = 0; ready > 0 && c < kShards && run.status.ok(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      Conn& conn = conns[c];
      for (;;) {
        const int64_t read_start = log != nullptr ? NowNs() : 0;
        conn.in.EnsureWritable(1 << 16);
        const size_t space = conn.in.WritableBytes();
        const ssize_t n = conn.sock.ReadSome(conn.in.WritePtr(), space);
        ++run.syscalls;
        const int64_t recv_ns = NowNs();
        if (log != nullptr) {
          run.stages.read_ns += static_cast<uint64_t>(recv_ns - read_start);
          if (sampled) {
            log->Record(SpanName::kRead, tick_span, tick, read_start, recv_ns);
          }
        }
        if (n < 0) {
          fail(util::DataLossError("the daemon closed a connection"));
          break;
        }
        if (n == 0) {
          break;
        }
        conn.in.CommitWrite(static_cast<size_t>(n));
        const int64_t recv_at = recv_ns - zero;
        for (;;) {
          util::Result<size_t> decoded = net::DecodeFrame(conn.in, &frame);
          if (!decoded.ok()) {
            fail(decoded.status());
            break;
          }
          if (decoded.value() == 0) {
            break;
          }
          const net::ResponseFrame& resp = frame.response;
          if (frame.type != net::FrameType::kResponse || resp.request_id >= next ||
              run.latency_us[resp.request_id] >= 0.0f ||
              trace.requests[resp.request_id].video % kShards != c) {
            fail(util::DataLossError("unexpected response for request " +
                                     std::to_string(resp.request_id)));
            break;
          }
          run.latency_us[resp.request_id] = static_cast<float>(
              static_cast<double>(recv_at - view.SendTimeNs(resp.request_id)) * 1e-3);
          conn.digest.FoldFields(resp.decision, resp.tier, resp.requested_bytes, resp.hit_chunks,
                                 resp.filled_chunks, resp.evicted_chunks);
          core::RequestOutcome outcome;
          outcome.decision = static_cast<core::Decision>(resp.decision);
          outcome.requested_bytes = resp.requested_bytes;
          outcome.requested_chunks =
              core::ToChunkRange(trace.requests[resp.request_id], chunk_bytes).count();
          outcome.filled_chunks = resp.filled_chunks;
          outcome.evicted_chunks = resp.evicted_chunks;
          outcome.hit_chunks = resp.hit_chunks;
          run.wire_totals.Accumulate(outcome, chunk_bytes);
          if (resp.request_id < fixed_end) {
            run.fixed_totals.Accumulate(outcome, chunk_bytes);
          }
          run.hit_chunks += resp.hit_chunks;
          ++run.conn_received[c];
          ++run.received;
        }
        if (log != nullptr) {
          const int64_t decode_end = NowNs();
          run.stages.decode_ns += static_cast<uint64_t>(decode_end - recv_ns);
          if (sampled) {
            log->Record(SpanName::kDecode, tick_span, tick, recv_ns, decode_end);
          }
        }
        if (static_cast<size_t>(n) < space) {
          break;  // drained what the kernel had
        }
      }
    }
    note_backlog();
    if (sampled) {
      log->Close(tick_span, NowNs());
    }
    ++tick;
  }
  run.sent = next;
  // A phase entered but never sent from (the run ended on its boundary).
  if (run.phases.size() > 1 && run.phases.back().begin == next) {
    run.phases.pop_back();
    run.at_begin.pop_back();
    run.at_end.pop_back();
    run.backlog_floor.pop_back();
    run.backlog_max.pop_back();
  }
  run.cpu_s = ThreadCpuSeconds() - cpu_start;
  end_phase();
  for (size_t c = 0; c < kShards; ++c) {
    run.conn_digest[c] = conns[c].digest.value();
  }
  if (probe != nullptr) {
    run.next_ns = probe->next_ns();
  }
  return run;
}

// ---- analysis ----------------------------------------------------------------

struct PhaseStats {
  size_t count = 0;
  double p50_us = 0.0;       // over the whole phase
  double p99_us = 0.0;       // median of the windows' p99s: the verdict
  double whole_p99_us = 0.0;
  double lateness_p99_us = 0.0;  // median of the windows' lateness p99s
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  double achieved_rps = 0.0;
  int64_t backlog_growth = 0;  // floor of the last window - floor of the first
  bool pass = false;
};

PhaseStats AnalyzePhase(const ClientRun& run, const std::vector<PhaseSpec>& plan, size_t ran) {
  const RunView view(plan, run);
  const PhaseSpec& spec = view.Spec(ran);
  PhaseStats stats;
  stats.count = spec.count;
  std::vector<float> all;
  std::vector<double> window_lateness;
  double last_recv_ns = 0.0;
  for (size_t w = 0; w < spec.windows; ++w) {
    std::vector<float> latency;
    std::vector<float> lateness;
    for (size_t i = view.WindowBegin(ran, w); i < view.WindowBegin(ran, w + 1); ++i) {
      const float value = run.latency_us[i];
      if (value >= 0.0f) {
        last_recv_ns = std::max(last_recv_ns, static_cast<double>(view.SendTimeNs(i, ran)) +
                                                  static_cast<double>(value) * 1e3);
      }
      // Unanswered requests count as missing the limit.
      latency.push_back(value >= 0.0f ? value : 1e12f);
      lateness.push_back(run.lateness_us[i]);
    }
    all.insert(all.end(), latency.begin(), latency.end());
    std::sort(latency.begin(), latency.end());
    std::sort(lateness.begin(), lateness.end());
    stats.window_p50.push_back(SortedPercentile(latency, 0.50));
    stats.window_p99.push_back(SortedPercentile(latency, 0.99));
    window_lateness.push_back(SortedPercentile(lateness, 0.99));
  }
  std::sort(all.begin(), all.end());
  stats.p50_us = SortedPercentile(all, 0.50);
  stats.whole_p99_us = SortedPercentile(all, 0.99);
  stats.p99_us = Median(stats.window_p99);
  stats.lateness_p99_us = Median(window_lateness);
  const double span_ns = last_recv_ns - static_cast<double>(run.phases[ran].start_ns);
  stats.achieved_rps = span_ns > 0.0 ? static_cast<double>(spec.count) * 1e9 / span_ns : 0.0;
  stats.backlog_growth = run.backlog_floor[ran].back() - run.backlog_floor[ran].front();
  const int64_t allowed =
      std::max<int64_t>(64, static_cast<int64_t>(0.01 * static_cast<double>(spec.count)));
  stats.pass = stats.p99_us <= kLatencyLimitUs && stats.backlog_growth <= allowed;
  return stats;
}

// The fixed phase's figures, from its quietest segments.
struct FixedStats {
  size_t segments = 0;
  size_t windows = 0;
  // Lower quartiles over the chosen segments' windows of the window p50s
  // and p99s: their quietest quarter.
  double quiet_p50_us = 0.0;
  double quiet_p99_us = 0.0;
  double achieved_rps = 0.0;
  double cpu_ns_per_req = 0.0;
};

FixedStats AnalyzeFixed(const ClientRun& run, const std::vector<PhaseSpec>& plan) {
  const RunView view(plan, run);
  auto steal = [&](size_t ran) { return run.at_end[ran].steal - run.at_begin[ran].steal; };
  auto cpu = [&](size_t ran) { return run.at_end[ran].cpu_s - run.at_begin[ran].cpu_s; };
  std::vector<size_t> segments;
  for (size_t k = 0; k < run.phases.size(); ++k) {
    if (view.Spec(k).fixed) {
      segments.push_back(k);
    }
  }
  std::vector<size_t> chosen = segments;
  std::stable_sort(chosen.begin(), chosen.end(),
                   [&](size_t a, size_t b) { return steal(a) < steal(b); });
  chosen.resize(std::min(chosen.size(), kQuietSegments));

  FixedStats out;
  out.segments = chosen.size();
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<float> all;
  double count = 0.0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::printf("\nfixed-rate segments (%zu of %zu with the least host steal count):\n",
              chosen.size(), segments.size());
  for (const size_t k : segments) {
    const PhaseStats stats = AnalyzePhase(run, plan, k);
    const bool use = std::find(chosen.begin(), chosen.end(), k) != chosen.end();
    std::printf("  %-8s steal %4llu ticks  p50 %8.1f us  median-window p99 %8.1f us  "
                "cpu %7.0f ns/req  %s\n",
                view.Spec(k).name.c_str(), static_cast<unsigned long long>(steal(k)),
                stats.p50_us, stats.p99_us, cpu(k) * 1e9 / static_cast<double>(stats.count),
                use ? "used" : "");
    if (!use) {
      continue;
    }
    window_p50.insert(window_p50.end(), stats.window_p50.begin(), stats.window_p50.end());
    window_p99.insert(window_p99.end(), stats.window_p99.begin(), stats.window_p99.end());
    for (size_t i = run.phases[k].begin; i < view.End(k); ++i) {
      all.push_back(run.latency_us[i] >= 0.0f ? run.latency_us[i] : 1e12f);
    }
    count += static_cast<double>(stats.count);
    seconds += static_cast<double>(stats.count) / stats.achieved_rps;
    cpu_s += cpu(k);
  }
  out.windows = window_p99.size();
  out.quiet_p50_us = QuartilesOf(window_p50).q1;
  out.quiet_p99_us = QuartilesOf(window_p99).q1;
  out.achieved_rps = count / seconds;
  out.cpu_ns_per_req = cpu_s * 1e9 / count;
  std::sort(all.begin(), all.end());
  const double deepest = all.size() > 10 ? 1.0 - 10.0 / static_cast<double>(all.size()) : 0.5;
  std::printf("fixed rate %.0f req/s, %zu samples in %zu windows of the chosen segments: "
              "quiet-quarter p50 %.2f us, p99 %.2f us; whole p50 %.2f us, p99 %.2f us, "
              "p%.4g %.2f us\n",
              kFixedRate, all.size(), out.windows, out.quiet_p50_us, out.quiet_p99_us,
              SortedPercentile(all, 0.50), SortedPercentile(all, 0.99), deepest * 100.0,
              SortedPercentile(all, deepest));
  return out;
}

struct Ladders {
  bool valid = false;  // slo_rate_rps comes from a valid ladder
  double slo_rate_rps = 0.0;
  double peak_rps = 0.0;  // highest achieved rate on any step
  // Of the ladder slo_rate_rps comes from: the generator's lateness on the
  // failed step that decided it, and the backlog peak on its SLO step.
  double lateness_p99_us = 0.0;
  uint64_t slo_backlog_max = 0;
};

Ladders AnalyzeLadders(const ClientRun& run, const std::vector<PhaseSpec>& plan) {
  std::printf("\n(p99 and lateness: median over the phase's windows; whole: over the phase)\n");
  std::printf("%-10s %9s %9s %8s %8s %9s %10s %9s %8s %7s  %s\n", "phase", "offered",
              "achieved", "count", "p50 us", "p99 us", "whole p99", "late p99", "backlog",
              "growth", "verdict");
  std::vector<PhaseStats> stats;
  for (size_t k = 0; k < run.phases.size(); ++k) {
    stats.push_back(AnalyzePhase(run, plan, k));
    const PhaseSpec& spec = plan[run.phases[k].spec];
    const PhaseStats& s = stats.back();
    std::printf("%-10s %9.0f %9.0f %8zu %8.1f %9.1f %10.1f %9.1f %8llu %7lld  %s\n",
                spec.name.c_str(), spec.rate, s.achieved_rps, s.count, s.p50_us, s.p99_us,
                s.whole_p99_us, s.lateness_p99_us,
                static_cast<unsigned long long>(run.backlog_max[k]),
                static_cast<long long>(s.backlog_growth),
                spec.ladder < 0 ? "" : s.pass ? "pass" : "FAIL");
  }
  Ladders out;
  Ladders unconfirmed;  // the best ladder that is not valid
  for (size_t k = 0; k < run.phases.size(); ++k) {
    if (plan[run.phases[k].spec].ladder >= 0) {
      out.peak_rps = std::max(out.peak_rps, stats[k].achieved_rps);
    }
  }
  for (int ladder = 0; ladder < static_cast<int>(kLadders); ++ladder) {
    std::vector<size_t> steps;
    for (size_t k = 0; k < run.phases.size(); ++k) {
      if (plan[run.phases[k].spec].ladder == ladder) {
        steps.push_back(k);
      }
    }
    // The highest passing step sets the ladder's SLO; the failed step just
    // above it decides it, and only counts while the generator was on time.
    size_t top = steps.size();
    for (size_t j = 0; j < steps.size(); ++j) {
      if (stats[steps[j]].pass) {
        top = j;
      }
    }
    const char* verdict = "valid";
    double lateness = 0.0;
    if (top == steps.size()) {
      verdict = "invalid: even its first step missed the limit";
    } else if (top + 1 == steps.size()) {
      verdict = "invalid: its top step still met the limit (offered load too low)";
    } else {
      lateness = stats[steps[top + 1]].lateness_p99_us;
      if (lateness > kLatenessLimitUs) {
        verdict = "invalid: the generator fell behind schedule on the step that failed";
      }
    }
    const bool valid = std::string(verdict) == "valid";
    std::printf("ladder %d: %s", ladder, verdict);
    if (top < steps.size()) {
      const size_t k = steps[top];
      std::printf(", SLO rate %.0f req/s (%s)", stats[k].achieved_rps,
                  plan[run.phases[k].spec].name.c_str());
      Ladders& best = valid ? out : unconfirmed;
      if (stats[k].achieved_rps > best.slo_rate_rps) {
        best.slo_rate_rps = stats[k].achieved_rps;
        best.lateness_p99_us = lateness;
        best.slo_backlog_max = run.backlog_max[k];
      }
    }
    std::printf("\n");
  }
  out.valid = out.slo_rate_rps > 0.0;
  if (!out.valid) {
    out.slo_rate_rps = unconfirmed.slo_rate_rps > 0.0 ? unconfirmed.slo_rate_rps
                                                      : stats[1].achieved_rps;
    out.lateness_p99_us = unconfirmed.lateness_p99_us;
    out.slo_backlog_max = unconfirmed.slo_backlog_max;
  }
  return out;
}

void PrintSlo(const Ladders& ladders) {
  if (ladders.valid) {
    std::printf("net.slo_rate_rps %.0f (best valid ladder)\n", ladders.slo_rate_rps);
  } else {
    std::printf("WARNING: no valid ladder; net.slo_rate_rps %.0f is unconfirmed\n",
                ladders.slo_rate_rps);
  }
}

// One timed run against a freshly started daemon.
struct Timed {
  ClientRun client;
  double process_cpu_s = 0.0;
  uint64_t switches = 0;
  double peak_rss_mb = 0.0;
  exec::ThreadPool::Stats pool;
  uint64_t serve_allocs = 0;
};

Timed RunTimed(Setup& setup, const std::vector<PhaseSpec>& plan, SpanLog* log) {
  Timed timed;
  const exec::ThreadPool::Stats pool_before = setup.pool->stats();
  const uint64_t allocs_before = setup.registry.CounterValue("net.server.serve_allocs_total");
  ResetPeakRss();
  const ProcessUsage before = ReadProcessUsage();
  timed.client = RunClient(setup.trace, plan, setup.server->port(), log);
  const ProcessUsage after = ReadProcessUsage();
  timed.peak_rss_mb = PeakRssMb();
  timed.process_cpu_s = after.cpu_seconds - before.cpu_seconds;
  timed.switches = (after.voluntary_switches - before.voluntary_switches) +
                   (after.involuntary_switches - before.involuntary_switches);
  const exec::ThreadPool::Stats pool_after = setup.pool->stats();
  timed.pool.executed = pool_after.executed - pool_before.executed;
  timed.pool.stolen = pool_after.stolen - pool_before.stolen;
  timed.serve_allocs =
      setup.registry.CounterValue("net.server.serve_allocs_total") - allocs_before;
  setup.server->Stop();
  return timed;
}

}  // namespace

RunOutcome RunEdgeWorkload(const Args& args, Report& report) {
  RunOutcome outcome;
  PrintMeta(args, {{"client_threads", 1},
                   {"daemon_event_loop", 1},
                   {"daemon_pool_workers", kPoolWorkers},
                   {"daemon_shards", kShards},
                   {"reference_threads", kSetupThreads}});
  const std::vector<PhaseSpec> plan = MakePlan(args.seconds);
  std::printf("plan: up to %zu requests; fixed rate %.0f req/s; %zu ladders of up to %zu steps "
              "from x%.2f, x%.2f per step\n",
              PlanRequests(plan), kFixedRate, kLadders, kLadderSteps, kLadderStart,
              kLadderGrowth);

  // ---- set-up, repeated; setup_s is the median ----
  Setup setup;
  std::vector<double> setup_s;
  const size_t setup_repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t k = 0; k < setup_repeats; ++k) {
    SetUpOnce(args, PlanRequests(plan), setup);
    setup_s.push_back(setup.total_s);
    std::printf("set-up %zu: %.3f s (generate %.3f, bridge %.3f, start %.4f), "
                "bridge digest %s %s\n",
                k + 1, setup.total_s, setup.generate_s, setup.bridge_s, setup.start_s,
                HexDigest(setup.bridge_digest).c_str(), setup.bridge_ok ? "MATCH" : "MISMATCH");
    if (!setup.bridge_ok || setup.server == nullptr ||
        (args.seed == 1 && setup.bridge_digest != kBridgeSeed1Digest)) {
      std::printf("set-up failed: bridge or daemon start\n");
      outcome.correct = false;
      return outcome;
    }
  }

  // Every answered request of a shard counts only when the shard's wire
  // digest equals the offline replay of the prefix the run sent (cut `cut`
  // of `refs`).
  auto verify = [&](const ClientRun& client, const References& refs, size_t cut) {
    bool ok = client.status.ok();
    if (!ok) {
      std::printf("client error: %s\n", std::string(client.status.message()).c_str());
    }
    uint64_t verified = 0;
    for (size_t c = 0; c < kShards; ++c) {
      const bool match = client.conn_received[c] == refs.cafe[c].counts[cut] &&
                         client.conn_digest[c] == refs.cafe[c].digests[cut];
      std::printf("shard %zu: %llu responses, wire digest %s, offline %s -- %s\n", c,
                  static_cast<unsigned long long>(client.conn_received[c]),
                  HexDigest(client.conn_digest[c]).c_str(),
                  HexDigest(refs.cafe[c].digests[cut]).c_str(), match ? "MATCH" : "MISMATCH");
      if (match) {
        verified += client.conn_received[c];
      }
      ok = ok && match;
    }
    outcome.attempted += client.sent;
    outcome.failed += client.sent - std::min<uint64_t>(client.sent, verified);
    return ok;
  };

  if (!args.trace) {
    const Timed timed = RunTimed(setup, plan, nullptr);
    const ClientRun& client = timed.client;
    const References refs =
        ReplayReferences(setup.trace, {FixedEnd(plan), client.sent}, /*traced=*/false);
    const bool ok = verify(client, refs, 1);
    const Ladders ladders = AnalyzeLadders(client, plan);
    const FixedStats fixed = AnalyzeFixed(client, plan);
    PrintSlo(ladders);
    outcome.correct = ok;
    sim::ReplayTotals xlru;
    for (size_t c = 0; c < kShards; ++c) {
      xlru.Add(refs.xlru[c].totals[0]);  // the warm-up and fixed prefix
    }
    std::printf("\nMedian and quartiles over this run's repeats:\n");
    report.AddMedian("setup_s", setup_s, "s");
    report.Add("replay_rps", fixed.achieved_rps, "req/s");
    report.Add("cpu_ns_per_req", fixed.cpu_ns_per_req, "ns");
    report.Add("peak_rss_mb", timed.peak_rss_mb, "MiB");
    report.Add("efficiency_cafe", client.fixed_totals.Efficiency(core::CostModel(kAlpha)),
               "fraction");
    report.Add("efficiency_xlru", xlru.Efficiency(core::CostModel(kAlpha)), "fraction");
    report.Add("ok_rate", outcome.OkRate(), "fraction");
    report.Add("latency_p50_us", fixed.quiet_p50_us, "us");
    report.Add("latency_p99_us", fixed.quiet_p99_us, "us");
    return outcome;
  }

  // ---- traced: an untraced baseline, then the traced run, fresh daemons ----
  const Timed bare = RunTimed(setup, plan, nullptr);
  setup.server = StartDaemon(*setup.pool, setup.registry);
  if (setup.server == nullptr) {
    outcome.correct = false;
    return outcome;
  }
  SpanLog client_log("client", kSpanSampleEvery);
  const Timed timed = RunTimed(setup, plan, &client_log);
  const size_t first_cut = std::min(bare.client.sent, timed.client.sent);
  const size_t last_cut = std::max(bare.client.sent, timed.client.sent);
  const References refs = ReplayReferences(setup.trace, {first_cut, last_cut}, /*traced=*/true);
  bool ok = verify(bare.client, refs, bare.client.sent == first_cut ? 0 : 1);
  ok = verify(timed.client, refs, timed.client.sent == first_cut ? 0 : 1) && ok;
  const ClientRun& client = timed.client;
  // The ladders are read from the untraced run.
  const Ladders ladders = AnalyzeLadders(bare.client, plan);
  PrintSlo(ladders);
  const double received = static_cast<double>(std::max<size_t>(1, client.received));
  const double bare_received = static_cast<double>(std::max<size_t>(1, bare.client.received));
  std::printf("\nclient stages per request: encode %.1f ns, write %.1f ns, read %.1f ns, "
              "decode %.1f ns\n",
              static_cast<double>(client.stages.encode_ns) / received,
              static_cast<double>(client.stages.write_ns) / received,
              static_cast<double>(client.stages.read_ns) / received,
              static_cast<double>(client.stages.decode_ns) / received);

  CacheLayerTotals cafe;
  CacheLayerTotals xlru;
  for (size_t c = 0; c < kShards; ++c) {
    cafe.Add(refs.cafe[c].cache);
    xlru.Add(refs.xlru[c].cache);
  }
  auto per_req = [](double total, uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double server_cpu_s = timed.process_cpu_s - client.cpu_s;
  const double cache_s = static_cast<double>(cafe.ns) * 1e-9 *
                         (received / static_cast<double>(std::max<uint64_t>(1, cafe.requests)));
  std::printf("split: client %.1f%% of process CPU; cache %.1f%% of server CPU "
              "(the net and exec layers do the rest)\n",
              100.0 * client.cpu_s / timed.process_cpu_s, 100.0 * cache_s / server_cpu_s);
  // The split is a property of the workload, not of the outputs: a miss is
  // reported, not counted against the run.
  if (!(cache_s < 0.5 * server_cpu_s)) {
    std::printf("split check FAILED: the cache is not a minority of server CPU\n");
  }
  outcome.correct = ok;

  const sim::ReplayTotals& wire = client.wire_totals;
  report.Add("trace.next_ns_per_req", static_cast<double>(client.next_ns) / received, "ns");
  report.Add("trace.generate_s", 0.0, "s");
  report.Add("trace.consumer_wait_s", 0.0, "s");
  report.Add("trace.setup_generate_s", setup.generate_s, "s");
  report.Add("trace.setup_pack_s", 0.0, "s");
  report.Add("trace.setup_validate_s", 0.0, "s");
  AddCacheLayerMetrics(report, cafe, xlru);
  report.Add("core.hit_chunk_frac",
             per_req(static_cast<double>(client.hit_chunks), wire.requested_chunks), "fraction");
  report.Add("core.fill_chunks_per_req",
             per_req(static_cast<double>(wire.filled_chunks), wire.requests), "count");
  report.Add("core.evicted_chunks_per_req",
             per_req(static_cast<double>(wire.evicted_chunks), wire.requests), "count");
  report.Add("core.redirect_frac", wire.RedirectFraction(), "fraction");
  report.Add("sim.self_ns_per_req", 0.0, "ns");
  report.Add("exec.fleet_imbalance", 0.0, "ratio");
  report.Add("exec.pool_tasks_per_req", static_cast<double>(timed.pool.executed) / received,
             "count");
  report.Add("exec.pool_stolen_frac",
             per_req(static_cast<double>(timed.pool.stolen), timed.pool.executed), "fraction");
  report.Add("net.server_cpu_ns_per_req", server_cpu_s * 1e9 / received, "ns");
  report.Add("net.client_cpu_ns_per_req", client.cpu_s * 1e9 / received, "ns");
  report.Add("net.ctx_switches_per_req", static_cast<double>(timed.switches) / received, "count");
  report.Add("net.serve_allocs_per_req", static_cast<double>(timed.serve_allocs) / received,
             "count");
  report.Add("net.cache_ns_per_req", per_req(static_cast<double>(cafe.ns), cafe.requests), "ns");
  report.Add("net.client_syscalls_per_req", static_cast<double>(client.syscalls) / received,
             "count");
  report.Add("net.slo_rate_rps", ladders.slo_rate_rps, "req/s");
  report.Add("net.peak_rps", ladders.peak_rps, "req/s");
  report.Add("net.gen_lateness_p99_us", ladders.lateness_p99_us, "us");
  report.Add("net.backlog_max", static_cast<double>(ladders.slo_backlog_max), "count");
  report.Add("obs.replay_overhead_frac", 0.0, "fraction");
  // The open loop's wall time is fixed by its schedule, so the tracing cost
  // shows in CPU time per request instead.
  report.Add("bench.tracing_overhead_frac",
             (timed.process_cpu_s / received) / (bare.process_cpu_s / bare_received) - 1.0,
             "fraction");

  std::vector<const SpanLog*> views{&client_log};
  for (const auto& log : refs.logs) {
    views.push_back(log.get());
  }
  const std::string span_path =
      args.workdir + "/spans-edge-openloop-seed" + std::to_string(args.seed) + ".jsonl";
  if (WriteSpans(span_path, views)) {
    std::printf("spans written to %s\n", span_path.c_str());
  }
  return outcome;
}

}  // namespace perfbench
