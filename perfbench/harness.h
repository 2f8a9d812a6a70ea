// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Shared plumbing of the repository benchmark (perfbench/README.md): the
// command line, process-level measurements (CPU time, context switches,
// peak RSS), order statistics, machine metadata and the result line.
//
// Output contract: everything a run prints goes to stdout, and the LAST line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs (--trace 0) report every end-to-end metric, traced runs (--trace 1)
// every per-layer metric; the names and units are fixed by BENCHMARK.json.

#ifndef VCDN_PERFBENCH_HARNESS_H_
#define VCDN_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  // Scratch directory for packed traces and span dumps (inside the checkout).
  std::string workdir = ".";
};

// Parses --workload/--seed/--seconds/--trace/--workdir; exits with status 2
// naming the offender on anything else.
Args ParseArgs(int argc, char** argv);

// Process-wide resource usage (all threads), from getrusage(RUSAGE_SELF).
struct ProcessUsage {
  double cpu_seconds = 0.0;  // user + system
  uint64_t voluntary_switches = 0;
  uint64_t involuntary_switches = 0;
};
ProcessUsage ReadProcessUsage();

// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds();

// CPU time the hypervisor gave to other guests while this machine's CPUs
// wanted to run, summed over the CPUs, in clock ticks (the "steal" column
// of /proc/stat); 0 where it cannot be read.
uint64_t StealTicks();

// Returns freed heap to the kernel and resets the VmHWM high-water mark
// (/proc/self/clear_refs) so PeakRssMb() covers only what follows.
void ResetPeakRss();
double PeakRssMb();

// Order statistics with Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so the spreads printed here are the ones the
// stability check computes.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> values);
double Median(std::vector<double> values);
// Nearest-rank percentile of an ascending-sorted sample, p in [0, 1].
double SortedPercentile(const std::vector<float>& sorted, double p);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // Adds a metric, replacing an earlier value of the same name.
  void Add(const std::string& name, double value, const std::string& unit);
  // Adds the median of `repeats` and prints median and quartiles next to it.
  void AddMedian(const std::string& name, const std::vector<double>& repeats,
                 const std::string& unit);

  // Prints the metric table and, as the last stdout line, the result JSON.
  void Emit(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// A 64-bit digest as 16 hex digits.
std::string HexDigest(uint64_t value);

// Machine and build provenance: nproc, CPU model, kernel, git describe,
// build type, plus the run's seed and thread counts. Printed as one
// "meta: {...}" line.
void PrintMeta(const Args& args, const std::vector<std::pair<std::string, size_t>>& threads);

}  // namespace perfbench

#endif  // VCDN_PERFBENCH_HARNESS_H_
