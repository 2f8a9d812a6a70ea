// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Replaceable global operator new/delete that count allocations into the
// thread-local counters of alloc_hook.h. Compiled into the vcdn_alloc_hook
// OBJECT library so only binaries that opt in (perfbench/ and the tests that
// count allocations) carry the replacement.

#include <cstdlib>
#include <new>

#include "src/util/alloc_hook.h"

namespace {

struct ActivateHook {
  ActivateHook() { vcdn::util::detail::g_alloc_hook_active = true; }
};
ActivateHook g_activate;

void* CountedAlloc(std::size_t size) {
  ++vcdn::util::detail::g_alloc_count;
  vcdn::util::detail::g_alloc_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  ++vcdn::util::detail::g_alloc_count;
  vcdn::util::detail::g_alloc_bytes += size;
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}

void* operator new(std::size_t size, std::align_val_t alignment, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
