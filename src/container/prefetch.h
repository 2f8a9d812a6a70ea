// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Best-effort software prefetch for the flat hot-path containers.
//
// The flat containers trade pointer chasing for index chasing, but a probe
// still begins with one data-dependent cache line (the home index line, then
// the slab slot). A replay batch knows its next few keys ahead of time, so the
// batched admission path (CacheAlgorithm::HandleRequestBatch) issues these
// hints for request i+k while the cost model evaluates request i, overlapping
// the independent misses instead of serializing them.
//
// Prefetches are pure hints: correctness never depends on them, they touch no
// state an observer can see, and they compile to nothing where unsupported.

#ifndef VCDN_SRC_CONTAINER_PREFETCH_H_
#define VCDN_SRC_CONTAINER_PREFETCH_H_

namespace vcdn::container {

// Hints the cache hierarchy to pull `p`'s line in for a read. High temporal
// locality (L1): the batched hot path touches the line within a few hundred
// cycles of the hint.
inline void PrefetchForRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_PREFETCH_H_
