// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Flight recorder: a fixed-capacity ring of packed per-request decision
// records, kept per replay shard (or per daemon cache shard) so that when
// something goes wrong -- a fault boundary fires, a fleet digest mismatches,
// a VCDN_CHECK trips -- the last N decisions leading up to it can be dumped
// as a post-mortem without having logged anything during normal operation.
//
// Hot-path contract: the ring is preallocated at construction and Record()
// is a bounded store plus two index updates -- no allocation, no branching
// on capacity growth, no locks. This keeps the replay's steady-state
// allocation count at zero with the recorder enabled (verified by
// tests/replay_flight_test.cc against the allocation hook).
//
// Determinism contract: records carry simulated time only (never wall
// clock), and the post-mortem serialization is a pure function of the ring
// contents + RunMetadata (compiled in per build), so a seeded fault replay
// dumps byte-identical post-mortems across runs of the same binary.
//
// Layering: obs sits below core and fault, so DecisionRecord stores the
// decision and fault state as raw bytes (callers in sim/ cast their enums
// in) and the post-mortem writer takes the active fault schedule as a
// pre-rendered JSON string (fault::FaultScheduleToJson) rather than a
// fault type.

#ifndef VCDN_SRC_OBS_FLIGHT_RECORDER_H_
#define VCDN_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/run_metadata.h"
#include "src/util/status.h"

namespace vcdn::obs {

// One per-request decision, packed to 32 bytes so a 4096-entry ring is two
// pages of L2-resident state.
struct DecisionRecord {
  double time = 0.0;             // request arrival, simulated seconds
  uint64_t key = 0;              // content key (video id)
  uint32_t requested_bytes = 0;  // clamped to 32 bits; chunk math never needs more
  uint16_t filled_chunks = 0;
  uint16_t evicted_chunks = 0;
  uint16_t hit_chunks = 0;
  // core::Decision cast to a byte by the caller (0 serve, 1 redirect,
  // 2 unavailable); obs itself assigns no meaning.
  uint8_t decision = 0;
  // Caller-defined fault state byte (sim uses 0 normal, 1 degraded,
  // 2 outage).
  uint8_t fault_state = 0;
  // Stamped by FlightRecorder::Record: position in the total recorded
  // stream, so a dump shows how far into the run the window sits.
  uint32_t seq = 0;
};
static_assert(sizeof(DecisionRecord) == 32, "DecisionRecord must stay packed");

// What triggered a dump, carried alongside the records.
struct PostMortemContext {
  std::string trigger;  // "fault_boundary" | "digest_mismatch" | "check_failure" | ...
  std::string label;    // which recorder: "server3", "worker0", "edge1", ...
  double sim_time = 0.0;
  // Pre-rendered fault schedule JSON (fault::FaultScheduleToJson); empty
  // when no schedule is active.
  std::string fault_schedule_json;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity);

  // Appends one record, overwriting the oldest once full, and stamps
  // record.seq. Alloc-free and lock-free; a recorder belongs to one shard.
  void Record(DecisionRecord record) {
    record.seq = static_cast<uint32_t>(total_recorded_);
    ring_[head_] = record;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    }
    ++total_recorded_;
  }

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return size_; }
  uint64_t total_recorded() const { return total_recorded_; }

  // Ring contents oldest-first. Allocates -- capture/dump paths only.
  std::vector<DecisionRecord> Snapshot() const;

  void Clear();

 private:
  std::vector<DecisionRecord> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t total_recorded_ = 0;
};

// A deferred dump: the ring copied out at trigger time (e.g. a fault
// boundary inside a shard replay) for serialization after the shards join --
// so parallel shards never race on one output file.
struct FlightCapture {
  PostMortemContext context;
  uint64_t total_recorded = 0;
  std::vector<DecisionRecord> records;
};

FlightCapture CaptureFlight(const FlightRecorder& recorder, PostMortemContext context);

// Post-mortem JSONL: a meta line, a trigger line, an optional fault-schedule
// line, then one line per record (oldest first). Byte-stable for a given
// ring + context + metadata.
void WritePostMortemJsonl(std::ostream& out, const RunMetadata& meta,
                          const FlightCapture& capture);
// File variant; non-OK Status names the path on open/write failure.
util::Status WritePostMortemJsonl(const std::string& path, const RunMetadata& meta,
                                  const FlightCapture& capture);

// Crash-dump arming: registers `recorder` so that if a VCDN_CHECK fails
// anywhere in the process (including a fleet digest-mismatch CHECK), its
// last records are dumped to `path` before abort, via
// util::SetCheckFailureHook. Multiple recorders may be armed (per-shard
// lanes); each dumps to its own path. The recorder and the strings are
// copied into the armed entry except the recorder pointer itself, which
// must stay valid until DisarmCrashDump. Not async-signal-safe -- this
// fires on the CHECK path, which is already a controlled abort.
void ArmCrashDump(const FlightRecorder* recorder, std::string path, RunMetadata meta,
                  PostMortemContext context);
void DisarmCrashDump(const FlightRecorder* recorder);

}  // namespace vcdn::obs

#endif  // VCDN_SRC_OBS_FLIGHT_RECORDER_H_
