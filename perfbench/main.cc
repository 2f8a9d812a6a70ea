// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// vcdn_perfbench: the repository benchmark's binary. Run it through
// perfbench/run.py, which builds it and checks its result line against
// BENCHMARK.json:
//
//   python3 perfbench/run.py --workload fleet-mmap --seed 1 --seconds 25 --trace 0

#include <malloc.h>

#include <cstdio>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  // Fixed allocator thresholds: glibc otherwise raises its mmap threshold
  // after set-up frees its large buffers, and how much freed memory stays
  // resident -- and so peak_rss_mb -- would depend on that history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 20);
  Report report;
  RunOutcome outcome;
  if (args.workload == "fleet-mmap" || args.workload == "fleet-churn") {
    outcome = RunFleetWorkload(args, report);
  } else if (args.workload == "edge-openloop") {
    outcome = RunEdgeWorkload(args, report);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (outcome.attempted == 0) {
    outcome.correct = false;
  }
  report.Emit(outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}
