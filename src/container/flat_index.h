// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// FlatIndex: the hash index shared by FlatLruMap, ScoreHeap and VideoTable
// (the video records under xLRU and Cafe).
//
// Maps Key -> uint32_t handle (a slot in the caller's slab). The table stores
// only (32-bit hash, handle) pairs; key bytes stay in the caller's slab and
// are compared through a KeyAt callback only when the hashes match.
//
// Layout: an array of 64-byte lines, so a probe reads one cache line:
//
//   hash[0..6] | overflow | handle[0..6] | spare      (7 x 4 + 4 bytes, twice)
//
// A key's home line is `hash & mask`. A lookup matches the home line's 7
// hashes at once (two SSE2 compares where the target has them, else a plain
// loop) and checks the key only on a hash match. A slot is free when its
// handle is kNil; a freed slot keeps its stale hash, so a match on it is
// skipped by its handle.
//
// Overflow invariant: a line's `overflow` is the number of live entries whose
// probe path passed it -- entries stored beyond the line whose home is at or
// before it. Insert takes the first free slot from the home line on and
// bumps the count of every (full) line it passes. Entries never move, so
// Erase walks the same path back, decrements those counts and frees the
// slot: no backshift and no tombstones. A lookup therefore ends at the first
// line whose count is 0. Counts can keep a lookup going past lines that
// emptied since, but never beyond one lap of the table.
//
// Growth doubles the line count once an insert would pass 7/8 of the slots,
// and reinserts from the stored hashes alone (no key access). At 7 entries
// per 64 bytes and <= 7/8 load the table never holds more bytes than 8-byte
// buckets at <= 3/4 load would, for the same number of entries.
//
// All user-provided Hash output is finalized through MixU64, so identity
// hashes (libstdc++ std::hash<uint64_t>) are safe to use with dense keys.

#ifndef VCDN_SRC_CONTAINER_FLAT_INDEX_H_
#define VCDN_SRC_CONTAINER_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/container/fast_hash.h"
#include "src/util/check.h"

namespace vcdn::container {

template <typename Key, typename Hash = std::hash<Key>>
class FlatIndex {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Mixed 32-bit hash of a key; pass the same value to Find/Insert/Erase so
  // the key is hashed once per operation.
  uint32_t HashOf(const Key& key) const {
    return static_cast<uint32_t>(MixU64(static_cast<uint64_t>(Hash{}(key))));
  }

  // Sizes the table for `n` entries without rehash-triggered growth.
  void Reserve(size_t n) {
    size_t want = kMinLines;
    while (!Fits(n, want)) {
      want <<= 1;
    }
    if (want > lines_.size()) {
      Rehash(want);
    }
  }

  void Clear() {
    for (Line& line : lines_) {
      line = Line{};
    }
    size_ = 0;
  }

  // Returns the handle stored for `key`, or kNil. `key_at(handle)` must
  // return (something comparable to) the key stored in the caller's slab.
  template <typename KeyAt>
  uint32_t Find(uint32_t hash, const Key& key, const KeyAt& key_at) const {
    size_t i = hash & mask_;
    for (size_t lap = lines_.size(); lap != 0; --lap) {
      const Line& line = lines_[i];
      for (uint32_t m = Match(line.hash, hash); m != 0; m &= m - 1) {
        const uint32_t handle = line.handle[std::countr_zero(m)];
        if (handle != kNil && key_at(handle) == key) {
          return handle;
        }
      }
      if (line.overflow == 0) {
        return kNil;
      }
      i = (i + 1) & mask_;
    }
    return kNil;
  }

  // Inserts a (hash, handle) pair. The key must not already be present
  // (callers Find first); duplicates would shadow each other.
  void Insert(uint32_t hash, uint32_t handle) {
    VCDN_DCHECK(handle != kNil);
    if (!Fits(size_ + 1, lines_.size())) {
      Rehash(lines_.empty() ? kMinLines : lines_.size() * 2);
    }
    Place(hash, handle);
    ++size_;
  }

  // Removes the entry holding `handle`, which must be present under `hash`
  // (callers erase what they found or inserted).
  void Erase(uint32_t hash, uint32_t handle) {
    VCDN_DCHECK(handle != kNil);
    size_t i = hash & mask_;
    while (true) {
      Line& line = lines_[i];
      const uint32_t at = Match(line.handle, handle);
      if (at != 0) {
        line.handle[std::countr_zero(at)] = kNil;
        --size_;
        return;
      }
      VCDN_DCHECK(line.overflow > 0);
      --line.overflow;
      i = (i + 1) & mask_;
    }
  }

  // Number of slots currently allocated (for tests / load inspection).
  size_t slot_count() const { return lines_.size() * kSlots; }

 private:
  static constexpr uint32_t kSlots = 7;
  static constexpr size_t kMinLines = 2;

  // Both 8-word halves are 16-byte aligned for the SIMD match; the eighth
  // word of each half is not a slot and is masked off.
  struct alignas(64) Line {
    uint32_t hash[kSlots] = {};
    uint32_t overflow = 0;
    uint32_t handle[kSlots] = {kNil, kNil, kNil, kNil, kNil, kNil, kNil};
    uint32_t spare = 0;
  };
  static_assert(sizeof(Line) == 64);

  // Hands out 64-byte-aligned line arrays carved from plain operator new:
  // the raw pointer sits in the slack just before the first line. The
  // over-aligned operator new (posix_memalign under glibc) measured about
  // 1.3 MiB more peak RSS on the fleet-mmap set-up for the same tables.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    static constexpr size_t kSlack = alignof(T) + sizeof(void*);

    LineAllocator() = default;
    template <typename U>
    LineAllocator(const LineAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

    T* allocate(size_t n) {
      auto* raw = static_cast<std::byte*>(::operator new(n * sizeof(T) + kSlack));
      std::byte* first = raw + sizeof(void*);
      first += (alignof(T) - reinterpret_cast<uintptr_t>(first) % alignof(T)) % alignof(T);
      std::memcpy(first - sizeof(void*), &raw, sizeof(void*));
      return reinterpret_cast<T*>(first);
    }
    void deallocate(T* p, size_t) {
      void* raw = nullptr;
      std::memcpy(&raw, reinterpret_cast<std::byte*>(p) - sizeof(void*), sizeof(void*));
      ::operator delete(raw);
    }
    friend bool operator==(const LineAllocator&, const LineAllocator&) { return true; }
  };

  // True when `n` entries stay within 7/8 of `lines` lines' slots.
  static bool Fits(size_t n, size_t lines) { return n * 8 <= lines * kSlots * 7; }

  // Bit s (s < 7) is set iff words[s] == value.
  static uint32_t Match(const uint32_t* words, uint32_t value) {
#if defined(__SSE2__)
    const __m128i v = _mm_set1_epi32(static_cast<int>(value));
    const __m128i lo = _mm_cmpeq_epi32(_mm_load_si128(reinterpret_cast<const __m128i*>(words)), v);
    const __m128i hi =
        _mm_cmpeq_epi32(_mm_load_si128(reinterpret_cast<const __m128i*>(words + 4)), v);
    const __m128i bytes = _mm_packs_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
    return static_cast<uint32_t>(_mm_movemask_epi8(bytes)) & ((1u << kSlots) - 1);
#else
    uint32_t bits = 0;
    for (uint32_t s = 0; s < kSlots; ++s) {
      bits |= static_cast<uint32_t>(words[s] == value) << s;
    }
    return bits;
#endif
  }

  // Stores the pair in the first free slot from its home line on. The table
  // is never full, so a free slot exists.
  void Place(uint32_t hash, uint32_t handle) {
    size_t i = hash & mask_;
    while (true) {
      Line& line = lines_[i];
      const uint32_t free = Match(line.handle, kNil);
      if (free != 0) {
        const int s = std::countr_zero(free);
        line.hash[s] = hash;
        line.handle[s] = handle;
        return;
      }
      ++line.overflow;
      i = (i + 1) & mask_;
    }
  }

  void Rehash(size_t new_lines) {
    VCDN_DCHECK((new_lines & (new_lines - 1)) == 0);
    std::vector<Line, LineAllocator<Line>> old = std::move(lines_);
    lines_.assign(new_lines, Line{});
    mask_ = new_lines - 1;
    for (const Line& line : old) {
      for (uint32_t s = 0; s < kSlots; ++s) {
        if (line.handle[s] != kNil) {
          Place(line.hash[s], line.handle[s]);
        }
      }
    }
  }

  std::vector<Line, LineAllocator<Line>> lines_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_FLAT_INDEX_H_
