// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Deterministic, platform-independent random number generation.
//
// The workload generator must produce bit-identical traces for a given seed on
// every platform so that experiments are reproducible; the C++ standard
// library's distributions are implementation-defined, so we implement both the
// generators (SplitMix64 for seeding, PCG32 for streams) and the distributions
// (see distributions.h) ourselves.

#ifndef VCDN_SRC_UTIL_RNG_H_
#define VCDN_SRC_UTIL_RNG_H_

#include <cstdint>

#include "src/util/check.h"

namespace vcdn::util {

// SplitMix64: tiny generator used to expand a single 64-bit seed into the
// state of other generators. Reference: Steele, Lea, Flood (2014).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// Seed-splitting: derives the seed of sub-stream `stream_id` from a base
// seed by jumping the SplitMix64 sequence directly to that element (the
// additive constant is SplitMix64's golden-ratio increment, so stream k gets
// the (k+1)-th output of the sequence seeded at `seed`).
//
// Use this whenever one logical experiment fans out into several independent
// generators (one workload per fleet server, one shard per worker, ...):
// the derived seeds are decorrelated, stable for a given (seed, stream_id),
// and -- unlike ad-hoc `seed + i` offsets -- never collide with the seed
// arithmetic of a neighboring experiment. Independent of thread count by
// construction: the mapping is pure.
inline uint64_t SplitSeed(uint64_t seed, uint64_t stream_id) {
  return SplitMix64(seed + stream_id * 0x9E3779B97F4A7C15ULL).Next();
}

// PCG32 (pcg_xsh_rr_64_32): small, fast, statistically strong generator with
// independent streams. Reference: O'Neill (2014). Defined in the header so
// that the workload generator's per-request loops inline the draws.
class Pcg32 {
 public:
  // Distinct (seed, stream) pairs yield independent sequences.
  explicit Pcg32(uint64_t seed, uint64_t stream = 0) : state_(0), inc_((stream << 1u) | 1u) {
    (void)Next();
    state_ += seed;
    (void)Next();
  }

  // Uniform 32-bit value.
  uint32_t Next() {
    uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    auto xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Uniform 64-bit value (two draws).
  uint64_t Next64() {
    uint64_t hi = Next();
    uint64_t lo = Next();
    return (hi << 32) | lo;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return static_cast<double>(Next64() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  uint32_t NextBounded(uint32_t bound) {
    VCDN_CHECK(bound > 0);
    // Lemire-style rejection to avoid modulo bias.
    uint32_t threshold = static_cast<uint32_t>(-bound) % bound;
    for (;;) {
      uint32_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Bernoulli draw with probability p (clamped to [0, 1]). Draws one uniform
  // when p lies in (0, 1), none otherwise.
  bool NextBool(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return NextDouble() < p;
  }

 private:
  static constexpr uint64_t kMultiplier = 6364136223846793005ULL;

  uint64_t state_;
  uint64_t inc_;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_RNG_H_
