// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fnv1a: the 64-bit FNV-1a byte folder behind every digest in the repository
// (sim::FleetDigest, sim::OutcomeDigest, trace::RequestDigest and the thread
// pool's task-label keys). Each digest defines its own byte sequence; this
// class only folds bytes, so two digests agree exactly when they fold the
// same bytes in the same order.
//
// Header-only and inline: OutcomeDigest folds once per served request on the
// daemon's serve path and once per response in the load generator.

#ifndef VCDN_SRC_UTIL_FNV1A_H_
#define VCDN_SRC_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace vcdn::util {

class Fnv1a {
 public:
  void FoldByte(uint8_t byte) { hash_ = (hash_ ^ byte) * kPrime; }

  // The value's eight bytes, least significant first.
  void FoldU64(uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      FoldByte(static_cast<uint8_t>(value >> shift));
    }
  }

  // `size` raw bytes from `data`, in memory order.
  void FoldBytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      FoldByte(bytes[i]);
    }
  }

  uint64_t value() const { return hash_; }

 private:
  static constexpr uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  uint64_t hash_ = kOffsetBasis;
};

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_FNV1A_H_
