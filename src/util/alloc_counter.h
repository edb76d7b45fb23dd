// Global heap-allocation counter.
//
// alloc_counter.cc replaces the global operator new/delete family with
// thin malloc/free wrappers that bump a thread-local counter. The
// simulator's run loops snapshot the counter around dispatch
// (SimProfile::heap_allocs), which is what lets the perf gate assert that
// the steady-state hot path performs *zero* heap allocations — a regression
// that reintroduces per-event allocation fails CI even if the events/sec
// number happens to absorb it (DESIGN.md §12).
//
// The counter is thread-local: a Simulator runs on exactly one thread at a
// time, so per-run deltas are exact.
// Sanitizers keep working: the wrappers bottom out in malloc/free, which
// ASan/TSan intercept underneath.
#pragma once

#include <cstdint>

namespace ccas {

// Number of global operator-new calls made by this thread since it started.
// Monotonic; meaningful only as a delta.
[[nodiscard]] std::uint64_t thread_heap_allocs();

}  // namespace ccas
