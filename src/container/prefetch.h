// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Best-effort software prefetch.
//
// A loop that knows its next few addresses ahead of time can hint them
// while it works on the current one, overlapping the independent misses
// instead of serializing them (util::AliasTable's SampleMany draws a block
// of columns, then prefetches each before reading any).
//
// Prefetches are pure hints: correctness never depends on them, they touch no
// state an observer can see, and they compile to nothing where unsupported.

#ifndef VCDN_SRC_CONTAINER_PREFETCH_H_
#define VCDN_SRC_CONTAINER_PREFETCH_H_

namespace vcdn::container {

// Hints the cache hierarchy to pull `p`'s line in for a read. High temporal
// locality (L1): the caller reads the line within a few hundred cycles of
// the hint.
inline void PrefetchForRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace vcdn::container

#endif  // VCDN_SRC_CONTAINER_PREFETCH_H_
