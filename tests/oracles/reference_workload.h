// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// ReferenceWorkload: the test oracle for trace::WindowedWorkload
// (src/trace/workload_generator.h).
//
// The same generator, written the straightforward way: every window scans the
// whole catalog for demand weights, builds a fresh alias table (with its own
// copy of the classic Vose construction and sampler), and walks one loop that
// interleaves the three request streams -- thinning every arrival candidate
// with the exact diurnal factor, picking a video, drawing its byte range.
//
// WindowedWorkload must match it window for window, record for record:
// tests/trace_generator_differential_test.cc compares the two over the paper
// profiles and edge configs. Nothing outside tests/ links it.

#ifndef VCDN_TESTS_ORACLES_REFERENCE_WORKLOAD_H_
#define VCDN_TESTS_ORACLES_REFERENCE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/trace/catalog.h"
#include "src/trace/request.h"
#include "src/trace/workload_generator.h"
#include "src/util/rng.h"

namespace vcdn::trace {

class ReferenceWorkload {
 public:
  explicit ReferenceWorkload(WorkloadConfig config);

  const Catalog& catalog() const { return catalog_; }

  // Appends the next window's requests; false once the trace is exhausted.
  bool NextWindow(std::vector<Request>* out);

 private:
  WorkloadConfig config_;
  Catalog catalog_;
  util::Pcg32 arrival_rng_;
  util::Pcg32 pick_rng_;
  util::Pcg32 range_rng_;
  double lambda_max_;
  double window_start_ = 0.0;
};

}  // namespace vcdn::trace

#endif  // VCDN_TESTS_ORACLES_REFERENCE_WORKLOAD_H_
