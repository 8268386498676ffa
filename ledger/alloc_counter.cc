#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
// Relaxed atomics: with sim threads > 0 node lanes allocate on pool
// threads; the counts are read only after those threads are idle.
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

namespace hermes::ledger {

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace hermes::ledger

// Same idiom as bench/bench_micro_routing.cc: a matched malloc/free pair
// behind the global operators. GCC pairs our operator new against its
// builtin operator delete and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
