#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#include "src/util/arena.h"

namespace ccas {

// Size-class free-list allocator for small container spill nodes (RunList
// runs, and anything else that outgrows its inline storage). Backing memory
// comes from an internal MonotonicArena, so nodes freed back to the pool are
// recycled in O(1) without ever touching the global heap again — the
// steady-state hot path of a simulation performs zero heap allocations once
// the pool has reached its high-water set (DESIGN.md §12).
//
// Not thread-safe by design: each Simulator owns one pool, and a Simulator
// only ever runs on a single thread at a time.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  // Returns storage for at least `bytes`, aligned to alignof(std::max_align_t).
  // Requests are rounded up to the next power-of-two size class (min 16 bytes)
  // so a freed block is reusable by any later request in the same class.
  void* allocate(std::size_t bytes) {
    const std::size_t cls = class_index(bytes);
    if (cls >= kClasses) {
      // Far beyond any node size this pool is meant for (>128MB); serve it
      // from the arena without a free list rather than index out of bounds.
      ++fresh_;
      return arena_.allocate(bytes, alignof(std::max_align_t));
    }
    void* head = free_[cls];
    if (head != nullptr) {
      free_[cls] = *static_cast<void**>(head);
      ++reused_;
      return head;
    }
    ++fresh_;
    return arena_.allocate(class_bytes(cls), alignof(std::max_align_t));
  }

  // Returns a block obtained from allocate(bytes') where bytes' rounds to the
  // same size class as `bytes`. The block is pushed on the class free list.
  void deallocate(void* p, std::size_t bytes) {
    const std::size_t cls = class_index(bytes);
    if (cls >= kClasses) return;  // oversized blocks stay with the arena
    *static_cast<void**>(p) = free_[cls];
    free_[cls] = p;
  }

  // Observability for tests and profiling.
  [[nodiscard]] std::uint64_t fresh_blocks() const { return fresh_; }
  [[nodiscard]] std::uint64_t reused_blocks() const { return reused_; }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.bytes_used(); }

  // Size class helpers, exposed so callers can compute the class a block was
  // allocated under (deallocate must see a size in the same class).
  static constexpr std::size_t kMinClassBytes = 16;
  static constexpr std::size_t kClasses = 24;

  static std::size_t class_index(std::size_t bytes) {
    std::size_t cls = 0;
    std::size_t cap = kMinClassBytes;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }

  static constexpr std::size_t class_bytes(std::size_t cls) {
    return kMinClassBytes << cls;
  }

 private:
  MonotonicArena arena_{64 * 1024};
  std::array<void*, kClasses> free_{};
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace ccas
