// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The determinism bridge between the live edge-server daemon (src/net) and
// the offline replayer: both sides fold the per-request outcome stream into
// the same FNV-1a digest, so "the daemon served exactly the decisions the
// simulator would have" is a single uint64 comparison. Mirrors the
// discipline sim::FleetDigest enforces for parallel replays
// (docs/PARALLELISM.md); the network variant is documented in
// docs/NETWORKING.md.
//
// The fold covers every deterministic field of an outcome -- decision,
// served-from tier, requested bytes, hit/filled/evicted chunk counts -- in
// request order. With one shard and one connection the daemon handles
// requests in exactly trace order, so the digests must match bit for bit at
// any pool thread count.

#ifndef VCDN_SRC_SIM_DECISION_DIGEST_H_
#define VCDN_SRC_SIM_DECISION_DIGEST_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/obs/flight_recorder.h"
#include "src/trace/request.h"
#include "src/util/fnv1a.h"

namespace vcdn::sim {

// Which line of defense served a request (the paper's tiers: RAM/disk in
// front of origin). Derived from the outcome so both the daemon's response
// encoder and the offline fold compute it identically.
enum class ServedTier : uint8_t {
  kDisk = 0,        // served, every requested chunk already on disk
  kDiskFill = 1,    // served after ingressing at least one chunk from origin
  kRedirect = 2,    // 302 to an alternative server
  kUnavailable = 3  // never reached the cache (outage / drain)
};

inline ServedTier ServedTierOf(const core::RequestOutcome& outcome) {
  switch (outcome.decision) {
    case core::Decision::kServe:
      return outcome.filled_chunks == 0 ? ServedTier::kDisk : ServedTier::kDiskFill;
    case core::Decision::kRedirect:
      return ServedTier::kRedirect;
    case core::Decision::kUnavailable:
      return ServedTier::kUnavailable;
  }
  return ServedTier::kUnavailable;
}

// The flight-recorder record of one decision, each count clamped to its
// field's width. sim::Replay and the daemon's shard drains both record
// through this, so their rings compare byte for byte. `fault_state` is the
// caller's byte (sim: 0 normal, 1 degraded, 2 outage; the daemon: 0).
inline obs::DecisionRecord MakeDecisionRecord(const trace::Request& request,
                                              const core::RequestOutcome& outcome,
                                              uint8_t fault_state) {
  obs::DecisionRecord record;
  record.time = request.arrival_time;
  record.key = request.video;
  record.requested_bytes = static_cast<uint32_t>(
      std::min<uint64_t>(outcome.requested_bytes, std::numeric_limits<uint32_t>::max()));
  record.filled_chunks = static_cast<uint16_t>(
      std::min<uint32_t>(outcome.filled_chunks, std::numeric_limits<uint16_t>::max()));
  record.evicted_chunks = static_cast<uint16_t>(
      std::min<uint32_t>(outcome.evicted_chunks, std::numeric_limits<uint16_t>::max()));
  record.hit_chunks = static_cast<uint16_t>(
      std::min<uint32_t>(outcome.hit_chunks, std::numeric_limits<uint16_t>::max()));
  record.decision = static_cast<uint8_t>(outcome.decision);
  record.fault_state = fault_state;
  return record;
}

// Order-sensitive FNV-1a accumulator over outcome streams. Fold the fields
// either from a core::RequestOutcome (offline replay, daemon shard) or from
// the equivalent wire-response fields (load-generator client); the two
// spellings are defined to fold identical byte sequences.
class OutcomeDigest {
 public:
  void Fold(const core::RequestOutcome& outcome) {
    FoldFields(static_cast<uint8_t>(outcome.decision),
               static_cast<uint8_t>(ServedTierOf(outcome)), outcome.requested_bytes,
               outcome.hit_chunks, outcome.filled_chunks, outcome.evicted_chunks);
  }

  // The wire-side spelling: exactly the fields a net::ResponseFrame carries.
  void FoldFields(uint8_t decision, uint8_t tier, uint64_t requested_bytes, uint32_t hit_chunks,
                  uint32_t filled_chunks, uint32_t evicted_chunks) {
    hash_.FoldByte(decision);
    hash_.FoldByte(tier);
    hash_.FoldU64(requested_bytes);
    hash_.FoldU64(hit_chunks);
    hash_.FoldU64(filled_chunks);
    hash_.FoldU64(evicted_chunks);
    ++count_;
  }

  uint64_t value() const { return hash_.value(); }
  uint64_t count() const { return count_; }

 private:
  util::Fnv1a hash_;
  uint64_t count_ = 0;
};

// Replays `trace` through a fresh cache of the given kind/config offline
// (sim::Replay, no warmup split semantics involved -- the digest covers the
// whole stream) and returns the outcome digest. This is the reference value
// the loopback bridge compares the daemon-served digest against.
uint64_t ReplayOutcomeDigest(core::CacheKind kind, const core::CacheConfig& config,
                             const trace::Trace& trace, size_t batch_size = 16);

}  // namespace vcdn::sim

#endif  // VCDN_SRC_SIM_DECISION_DIGEST_H_
