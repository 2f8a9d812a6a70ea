// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The benchmark's workloads (perfbench/README.md has the why of each):
//
//   fleet-mmap     the Fig. 7 fleet at paper scale, replayed by sim::RunFleet
//                  from a VCDNTRS2 file packed during set-up and mmap'd;
//   fleet-churn    the same fleet on a quarter of the disk, generated as it
//                  is replayed, with Fig. 3 telemetry attached;
//   edge-openloop  net::EdgeServer over loopback, driven by an open-loop
//                  client at a fixed rate and then a rising rate ladder.

#ifndef VCDN_PERFBENCH_WORKLOADS_H_
#define VCDN_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/harness.h"

namespace perfbench {

// How many requests the run attempted and how many failed verification.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // ok_rate: verified requests / attempted.
  double OkRate() const {
    return attempted > 0 ? static_cast<double>(attempted - failed) / static_cast<double>(attempted)
                         : 0.0;
  }
};

// Both add every metric they measure to `report`.
RunOutcome RunFleetWorkload(const Args& args, Report& report);
RunOutcome RunEdgeWorkload(const Args& args, Report& report);

}  // namespace perfbench

#endif  // VCDN_PERFBENCH_WORKLOADS_H_
