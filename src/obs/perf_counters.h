// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Hardware performance counters over perf_event_open(2): one group of
// {cycles, instructions, LLC misses, branch misses} counting this thread,
// started and stopped around a timed region. The repository benchmark's
// traced run samples one around each cache call, which is where its
// cycles-per-request and LLC-misses-per-request metrics come from
// (perfbench/README.md).
//
// Graceful fallback is the whole point of the design: perf_event_open is
// often unavailable (perf_event_paranoid, seccomp, containers, non-Linux),
// and a bench must not fail because of it. Construction never aborts; when
// the syscall is denied, available() is false, Start/Stop are no-ops and
// TakeSample returns an invalid sample -- callers emit their usual output
// minus the hardware figures (perfbench reports them as 0, with
// core.perf_counters_available = 0).

#ifndef VCDN_SRC_OBS_PERF_COUNTERS_H_
#define VCDN_SRC_OBS_PERF_COUNTERS_H_

#include <cstdint>

namespace vcdn::obs {

// One read of the group. `valid` is false when the counters were never
// available or were multiplexed out for the whole region (time_running 0).
struct PerfSample {
  bool valid = false;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  // Scaling evidence: counters are scaled by time_enabled/time_running when
  // the kernel multiplexed the group.
  uint64_t time_enabled_ns = 0;
  uint64_t time_running_ns = 0;

  double ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) / static_cast<double>(cycles) : 0.0;
  }
};

class PerfCounterGroup {
 public:
  // Opens the group for the calling thread. Never fails hard: on any open
  // error the group is simply unavailable.
  PerfCounterGroup();
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  bool available() const { return leader_fd_ >= 0; }

  // Resets and enables the group. No-op when unavailable.
  void Start();
  // Enables without resetting, so Stop/Resume pairs can stitch one
  // accumulated region around untimed setup (cache construction, Prepare).
  void Resume();
  // Disables the group. No-op when unavailable.
  void Stop();
  // Reads the group (scaled for multiplexing). Invalid sample when
  // unavailable.
  PerfSample TakeSample() const;

 private:
  int leader_fd_ = -1;
  int instructions_fd_ = -1;
  int llc_misses_fd_ = -1;
  int branch_misses_fd_ = -1;
};

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_PERF_COUNTERS_H_
