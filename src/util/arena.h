// Monotonic arena for per-flow simulation state.
//
// Experiments allocate thousands of sender/receiver/Rng triples whose
// lifetimes all end together when the run tears down. A MonotonicArena
// packs them into large contiguous blocks — one bump-pointer per
// allocation instead of one malloc per object, and flow state that is
// iterated together (snapshots, convergence polls) stays
// cache-adjacent. Objects are destroyed in reverse construction order
// when the arena is destroyed; nothing is freed early.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ccas {

class MonotonicArena {
 public:
  explicit MonotonicArena(size_t block_bytes = 1 << 20)
      : block_bytes_(block_bytes) {}
  ~MonotonicArena() { clear(); }
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  // Constructs a T in the arena; destroyed (in reverse order) by clear()
  // or the arena's destructor.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(Dtor{obj, [](void* p) { static_cast<T*>(p)->~T(); }});
    }
    return obj;
  }

  // Raw aligned storage with no registered destructor.
  void* allocate(size_t bytes, size_t align) {
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > block_end_) {
      new_block(bytes + align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_used_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  // Destroys every object (reverse construction order) and releases all
  // blocks.
  void clear() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->destroy(it->obj);
    }
    dtors_.clear();
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
      if (it->huge) {
        ::operator delete(it->p, std::align_val_t{kHugeBytes});
      } else {
        ::operator delete(it->p);
      }
    }
    blocks_.clear();
    cursor_ = 0;
    block_end_ = 0;
    bytes_used_ = 0;
  }

  [[nodiscard]] size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] size_t blocks() const { return blocks_.size(); }

 private:
  struct Dtor {
    void* obj;
    void (*destroy)(void*);
  };

  struct Block {
    void* p = nullptr;
    size_t bytes = 0;
    bool huge = false;  // allocated 2 MB-aligned (needs the aligned delete)
  };

  // 2 MB: x86-64/aarch64 huge-page size. Blocks at or above this are
  // allocated huge-page-aligned and advised MADV_HUGEPAGE, so a large flow
  // population (tens of MB of slabs, accessed in random per-event order)
  // costs hundreds of TLB entries instead of tens of thousands.
  static constexpr size_t kHugeBytes = size_t{2} << 20;

  void new_block(size_t min_bytes) {
    // Geometric block growth (capped at 32 MB): small runs stay in one
    // default-sized block, large runs concentrate into a handful of
    // huge-page-backed blocks. Growth only changes where fresh objects
    // land, never moves existing ones.
    size_t want = block_bytes_;
    for (size_t i = blocks_.size(); i > 0 && want < (size_t{32} << 20); --i) {
      want *= 2;
    }
    size_t size = min_bytes > want ? min_bytes : want;
    void* p = nullptr;
    bool huge = false;
    if (size >= kHugeBytes) {
      size = (size + kHugeBytes - 1) & ~(kHugeBytes - 1);
      p = ::operator new(size, std::align_val_t{kHugeBytes}, std::nothrow);
      if (p != nullptr) {
        huge = true;
#if defined(__linux__)
        madvise(p, size, MADV_HUGEPAGE);
#endif
      }
    }
    if (p == nullptr) p = ::operator new(size);
    blocks_.push_back(Block{p, size, huge});
    cursor_ = reinterpret_cast<uintptr_t>(p);
    block_end_ = cursor_ + size;
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  std::vector<Dtor> dtors_;
  uintptr_t cursor_ = 0;
  uintptr_t block_end_ = 0;
  size_t bytes_used_ = 0;
};

}  // namespace ccas
