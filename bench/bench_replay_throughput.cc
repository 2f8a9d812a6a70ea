// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Batch-size sweep: single-threaded replay throughput of xLRU and Cafe on
// the default Figure-7 six-server workload at {1, 4, 8, 16, 32} requests per
// HandleRequestBatch call (see docs/PERFORMANCE.md). Neither cache
// overrides the batch hook, so each row's ratio to batch 1 is what batching
// saves in the replay loop: one call and one set of counter adds per batch.
// Decisions are identical at every batch size
// (tests/sim_replay_batch_test.cc).
//
// This is the one replay question perfbench/ does not answer: the
// repository benchmark (BENCHMARK.json) measures fleet throughput, CPU per
// request, decision latency and peak RSS at batch 16 only.
//
// Flags: --threads N (trace generation) and --scale X (bench_common.h); a
// usage error exits 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSweepBatches[] = {1, 4, 8, 16, 32};

// Replays every trace through a fresh cache of `kind` in spans of
// `batch_size`; returns requests per second over the request loops only
// (cache construction and Prepare are outside the timed region).
double ReplayRequestsPerSecond(vcdn::core::CacheKind kind,
                               const std::vector<vcdn::trace::Trace>& traces,
                               const vcdn::core::CacheConfig& config, size_t batch_size) {
  using namespace vcdn;
  core::RequestBatch batch;
  batch.outcomes.resize(batch_size);
  double seconds = 0.0;
  size_t requests = 0;
  for (const trace::Trace& trace : traces) {
    auto cache = core::MakeCache(kind, config);
    cache->Prepare(trace);
    const std::vector<trace::Request>& stream = trace.requests;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < stream.size(); i += batch_size) {
      batch.requests = &stream[i];
      batch.count = std::min(batch_size, stream.size() - i);
      cache->HandleRequestBatch(batch);
    }
    seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    requests += stream.size();
  }
  return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdn;
  bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv, bench::kThreads | bench::kScale);
  bench::BenchScale scale = bench::ResolveScale(flags);
  bench::PrintHeader(
      "Batch-size sweep: single-thread xLRU and Cafe replay on the flat containers",
      "engineering measurement (no paper figure); batched admission, "
      "bit-identical decisions at every batch size",
      scale);

  const core::CacheConfig config = bench::PaperConfig(1.0, 2.0, scale);
  const std::vector<trace::Trace> traces =
      bench::MakeServerTraces(trace::PaperServerProfiles(scale.workload_scale), scale, flags);
  size_t total_requests = 0;
  for (const trace::Trace& t : traces) {
    total_requests += t.requests.size();
  }
  std::printf("Workload: %zu servers, %zu requests total\n\n", traces.size(), total_requests);

  struct Algorithm {
    const char* label;
    core::CacheKind kind;
  };
  for (const Algorithm& algorithm :
       {Algorithm{"xLRU", core::CacheKind::kXlru}, Algorithm{"Cafe", core::CacheKind::kCafe}}) {
    std::printf("%s:\n", algorithm.label);
    double unbatched = 0.0;
    for (size_t batch : kSweepBatches) {
      const double rps = ReplayRequestsPerSecond(algorithm.kind, traces, config, batch);
      unbatched = batch == 1 ? rps : unbatched;
      std::printf("  batch %-3zu %12.0f req/s  %5.2fx batch 1\n", batch, rps,
                  unbatched > 0.0 ? rps / unbatched : 0.0);
    }
  }
  return 0;
}
