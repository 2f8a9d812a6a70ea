// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Opt-in global allocation counters, used by the repository benchmark
// (perfbench/: allocations per request) and by the tests that assert zero
// steady-state allocations (container differential, replay flight, net
// soak).
//
// The counters only tick in binaries that link vcdn_alloc_hook: that library
// defines the replaceable global operator new/delete to forward to malloc and
// bump thread-local counters. Binaries that do not link it pay nothing and
// AllocCounters() reads back zeros.

#ifndef VCDN_SRC_UTIL_ALLOC_HOOK_H_
#define VCDN_SRC_UTIL_ALLOC_HOOK_H_

#include <cstdint>

namespace vcdn::util {

struct AllocStats {
  uint64_t allocations = 0;  // operator new calls on this thread
  uint64_t bytes = 0;        // bytes requested on this thread
};

// Snapshot of this thread's counters since thread start (all zero when
// vcdn_alloc_hook is not linked).
AllocStats AllocCounters();

// True when the counting operator new/delete are linked into this binary.
bool AllocHookActive();

// Convenience: counters consumed between Start() and Stop().
class AllocScope {
 public:
  AllocScope() : start_(AllocCounters()) {}
  AllocStats Delta() const {
    AllocStats now = AllocCounters();
    return AllocStats{now.allocations - start_.allocations, now.bytes - start_.bytes};
  }

 private:
  AllocStats start_;
};

namespace detail {
// Bumped by the counting operator new in vcdn_alloc_hook; read by
// AllocCounters(). Trivially initialized so the hook can run before any
// dynamic initialization.
extern thread_local uint64_t g_alloc_count;
extern thread_local uint64_t g_alloc_bytes;
extern bool g_alloc_hook_active;
}  // namespace detail

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_ALLOC_HOOK_H_
