// Many FIFO lanes over one shared pool of fixed-size chunks.
//
// A lane is a singly linked list of chunks, each holding up to ChunkCap
// elements contiguously in push order, so a lane is read back almost
// sequentially (one chunk hop per ChunkCap pops). Chunks come from, and
// return to, one free list shared by every lane: an idle lane costs only
// its 12-byte handle, and lanes never allocate on their own — the pool's
// chunk vector grows to the high-water chunk count and then stays put.
// That is what lets NetemDelay keep a lane per flow when tens of
// thousands of flow ids come and go.
//
// Lane handles are plain values owned by the caller (embedded in whatever
// record the lane belongs to) and only meaningful to the pool that filled
// them. Elements are addressed by chunk index, so a push that grows the
// pool invalidates references returned by front() but never a lane.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccas {

template <typename T, uint32_t ChunkCap = 16>
class LanePool {
  static_assert(ChunkCap > 0 && ChunkCap <= UINT16_MAX, "chunk positions are 16-bit");
  static constexpr uint32_t kNone = UINT32_MAX;

 public:
  struct Lane {
    uint32_t head = kNone;  // chunk holding the front element; kNone = empty
    uint32_t tail = kNone;  // chunk receiving the next push
    uint16_t head_pos = 0;  // front element's index in the head chunk
    uint16_t tail_pos = 0;  // next free index in the tail chunk
    [[nodiscard]] bool empty() const { return head == kNone; }
  };

  // Capacity hint: room for `elements` elements in full chunks.
  void reserve(size_t elements) { chunks_.reserve((elements + ChunkCap - 1) / ChunkCap); }
  // Chunks ever created (the high-water mark; freed chunks are recycled).
  [[nodiscard]] size_t chunks() const { return chunks_.size(); }

  // Precondition for front/pop_front: !lane.empty().
  [[nodiscard]] T& front(const Lane& lane) { return chunks_[lane.head].items[lane.head_pos]; }

  void push_back(Lane& lane, T&& v) {
    if (lane.tail == kNone) {
      lane.head = lane.tail = take_chunk();
      lane.head_pos = lane.tail_pos = 0;
    } else if (lane.tail_pos == ChunkCap) {
      const uint32_t c = take_chunk();
      chunks_[lane.tail].next = c;
      lane.tail = c;
      lane.tail_pos = 0;
    }
    chunks_[lane.tail].items[lane.tail_pos++] = std::move(v);
  }

  T pop_front(Lane& lane) {
    Chunk& c = chunks_[lane.head];
    T v = std::move(c.items[lane.head_pos++]);
    if (lane.head == lane.tail && lane.head_pos == lane.tail_pos) {
      give_chunk(lane.head);
      lane = Lane{};
    } else if (lane.head_pos == ChunkCap) {
      const uint32_t next = c.next;
      give_chunk(lane.head);
      lane.head = next;
      lane.head_pos = 0;
    }
    return v;
  }

 private:
  struct Chunk {
    std::array<T, ChunkCap> items;
    uint32_t next = kNone;  // successor in its lane, or in the free list
  };

  uint32_t take_chunk() {
    if (free_ != kNone) {
      const uint32_t c = free_;
      free_ = chunks_[c].next;
      return c;
    }
    chunks_.emplace_back();
    return static_cast<uint32_t>(chunks_.size() - 1);
  }
  // LIFO, so the next lane to need a chunk gets the one still in cache.
  void give_chunk(uint32_t c) {
    chunks_[c].next = free_;
    free_ = c;
  }

  std::vector<Chunk> chunks_;
  uint32_t free_ = kNone;
};

}  // namespace ccas
