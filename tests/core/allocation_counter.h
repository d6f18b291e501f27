// A counting replacement of the global operator new for allocation-budget
// tests: heap allocations are a machine-independent work counter, so a
// test pins the bookkeeping a call pays as a ceiling on allocations_of().
// The replacement functions are defined here, not declared, so include
// this header from exactly one source file of a test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace odn::testing {

inline std::atomic<std::uint64_t> g_allocations{0};

// Heap allocations made while `fn` runs (on any thread).
template <class Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace odn::testing

// Every replacement stays out of line: inlined into a caller, one half of
// a new/delete pair shows GCC a bare malloc() or free() and it warns of a
// mismatched deallocation (-Wmismatched-new-delete).
#define ODN_ALLOC_REPLACEMENT [[gnu::noinline]]

ODN_ALLOC_REPLACEMENT void* operator new(std::size_t bytes) {
  odn::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
ODN_ALLOC_REPLACEMENT void* operator new[](std::size_t bytes) {
  return operator new(bytes);
}
// std::stable_sort's temporary buffer uses the nothrow form; replacing it
// too keeps every new/delete pair on malloc/free (and counted).
ODN_ALLOC_REPLACEMENT void* operator new(std::size_t bytes,
                                         const std::nothrow_t&) noexcept {
  odn::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
ODN_ALLOC_REPLACEMENT void* operator new[](std::size_t bytes,
                                           const std::nothrow_t& tag) noexcept {
  return operator new(bytes, tag);
}
ODN_ALLOC_REPLACEMENT void operator delete(void* p) noexcept { std::free(p); }
ODN_ALLOC_REPLACEMENT void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
ODN_ALLOC_REPLACEMENT void operator delete(void* p,
                                           const std::nothrow_t&) noexcept {
  std::free(p);
}
ODN_ALLOC_REPLACEMENT void operator delete[](void* p) noexcept {
  std::free(p);
}
ODN_ALLOC_REPLACEMENT void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
ODN_ALLOC_REPLACEMENT void operator delete[](void* p,
                                             const std::nothrow_t&) noexcept {
  std::free(p);
}

#undef ODN_ALLOC_REPLACEMENT
