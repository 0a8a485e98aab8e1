// Counts the heap the process holds: the global operator new and
// delete are replaced here, so every C++ allocation of the library and
// of the benchmark is added to (and its release taken from) a live-byte
// count at malloc's usable size. heap_peak_kib is read from it (see
// HeapWatch in harness.h), so it measures what the deployment
// allocates, not the inputs and reference answers the benchmark holds.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace perfbench {
namespace {

// Every workload allocates from one thread, so relaxed loads and
// stores keep exact counts without a locked instruction per call.
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void add_live(std::int64_t bytes) noexcept {
  const std::int64_t live = g_live.load(std::memory_order_relaxed) + bytes;
  g_live.store(live, std::memory_order_relaxed);
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) add_live(static_cast<std::int64_t>(malloc_usable_size(p)));
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  add_live(-static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

HeapWatch::HeapWatch() : base_(g_live.load(std::memory_order_relaxed)) {
  g_peak.store(base_, std::memory_order_relaxed);
}

std::int64_t HeapWatch::peak_bytes() const {
  return g_peak.load(std::memory_order_relaxed) - base_;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = perfbench::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
