// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The main of every figure binary. bench/CMakeLists.txt compiles this file
// once per figure, with VCDN_EXPERIMENT naming the figure's function in
// bench_common.h and VCDN_EXPERIMENT_READS the shared flags it reads besides
// --scale and the obs flags.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace vcdn::bench;
  const BenchFlags flags = ParseBenchFlags(argc, argv, kScale | kObs | VCDN_EXPERIMENT_READS);
  const BenchScale scale = ResolveScale(flags);
  BenchObs obs(flags);
  RequireReleaseBuild();
  // A dropped CSV or obs dump is an error (docs/OBSERVABILITY.md).
  const bool printed = PrintResult(VCDN_EXPERIMENT(scale, flags, obs), scale);
  return obs.WriteIfRequested().ok() && printed ? 0 : 1;
}
