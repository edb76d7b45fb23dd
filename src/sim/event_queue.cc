#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "src/sim/profiler.h"

namespace ccas {

EventQueue::EventQueue(SimProfile* profile) : profile_(profile) {
  due_.reserve(64);
  overflow_.reserve(64);
}

void EventQueue::push(Time at, EventHandler* handler, uint32_t tag, uint64_t arg) {
  push_reserved(at, EventKey{next_seq_++, CausalKey{}}, handler, tag, arg);
}

void EventQueue::push_keyed(Time at, CausalKey key, EventHandler* handler,
                            uint32_t tag, uint64_t arg) {
  push_reserved(at, EventKey{next_seq_++, key}, handler, tag, arg);
}

void EventQueue::push_reserved(Time at, const EventKey& key, EventHandler* handler,
                               uint32_t tag, uint64_t arg) {
  place(Event{at, key.seq, key.causal.armed_at, handler, arg, key.causal.ctr, tag});
  ++size_;
  if (profile_ && size_ > profile_->pending_max) profile_->pending_max = size_;
}

void EventQueue::place(Event&& e) {
  const auto t = static_cast<uint64_t>(e.at.ns());
  if (t < due_end_) {
    due_.push_back(e);
    std::push_heap(due_.begin(), due_.end(), EventAfter{});
    if (profile_) ++profile_->pushes_due;
    return;
  }
  // A level-L wheel spans exactly one level-(L+1) slot, so the event goes
  // into the finest level whose current page contains it.
  for (int level = 0; level < kLevels; ++level) {
    const int slot_shift = kShift0 + level * kSlotBits;
    const int page_shift = slot_shift + kSlotBits;
    if ((t >> page_shift) == (cursor_ >> page_shift)) {
      const size_t idx = (t >> slot_shift) & kSlotMask;
      std::vector<Event>& v = slots_[level][idx];
      // First touch of a cold slot reserves the level's high-water
      // occupancy up front, and at least kMinSlotEvents. The level-2 ring
      // advances without wrapping within a run (one slot spans ~268 ms,
      // the ring ~68 s), so without this every slot ahead of the cursor
      // re-pays the full doubling chain of heap allocations as RTO
      // entries accumulate in it. The floor matters for the finer levels:
      // slot buffers circulate between slots, due_ and scratch_, and
      // lightly loaded rings (one event per netem lane, not per packet)
      // otherwise keep regrowing small buffers as load ramps up.
      if (v.capacity() == 0) v.reserve(std::max(warm_[level], kMinSlotEvents));
      v.push_back(e);
      occ_[level][idx >> 6] |= uint64_t{1} << (idx & 63);
      if (profile_) ++profile_->pushes_wheel;
      return;
    }
  }
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  if (profile_) ++profile_->pushes_overflow;
}

size_t EventQueue::next_occupied(const std::array<uint64_t, 4>& occ,
                                 size_t from) const {
  if (from >= kSlots) return kNoSlot;
  size_t word = from >> 6;
  uint64_t bits = occ[word] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) return (word << 6) + static_cast<size_t>(std::countr_zero(bits));
    if (++word >= occ.size()) return kNoSlot;
    bits = occ[word];
  }
}

void EventQueue::settle() {
  while (due_.empty()) {
    // 1) Advance to the next occupied level-0 slot of the current page.
    const size_t cur0 = (cursor_ >> kShift0) & kSlotMask;
    const size_t s0 = next_occupied(occ_[0], cur0 + 1);
    if (s0 != kNoSlot) {
      constexpr uint64_t kPageMask = (uint64_t{1} << (kShift0 + kSlotBits)) - 1;
      cursor_ = (cursor_ & ~kPageMask) | (static_cast<uint64_t>(s0) << kShift0);
      due_end_ = cursor_ + (uint64_t{1} << kShift0);
      // Adopt the slot's events as the new due heap; the slot vector
      // inherits due_'s empty-but-allocated buffer for reuse.
      std::swap(due_, slots_[0][s0]);
      std::make_heap(due_.begin(), due_.end(), EventAfter{});
      occ_[0][s0 >> 6] &= ~(uint64_t{1} << (s0 & 63));
      continue;
    }
    // 2) Cascade the next occupied slot of the finest non-empty coarser
    // level into the levels below it.
    bool cascaded = false;
    for (int level = 1; level < kLevels && !cascaded; ++level) {
      const int slot_shift = kShift0 + level * kSlotBits;
      const size_t cur = (cursor_ >> slot_shift) & kSlotMask;
      const size_t s = next_occupied(occ_[level], cur + 1);
      if (s == kNoSlot) continue;
      const uint64_t page_mask = (uint64_t{1} << (slot_shift + kSlotBits)) - 1;
      cursor_ = (cursor_ & ~page_mask) | (static_cast<uint64_t>(s) << slot_shift);
      due_end_ = cursor_ + (uint64_t{1} << kShift0);
      occ_[level][s >> 6] &= ~(uint64_t{1} << (s & 63));
      // Swap through a persistent scratch buffer instead of moving into a
      // temporary: the drained slot inherits the scratch capacity and the
      // scratch keeps the slot's, so cascades stop freeing and re-growing
      // slot vectors once the queue reaches its high-water occupancy —
      // this was the last steady-state heap-allocation source on the hot
      // path (every propagation-delay push lands in a coarse level).
      scratch_.clear();
      std::swap(scratch_, slots_[level][s]);
      if (scratch_.size() > warm_[level]) warm_[level] = scratch_.size();
      for (Event& e : scratch_) place(std::move(e));
      if (profile_) ++profile_->wheel_cascades;
      cascaded = true;
    }
    if (cascaded) continue;
    // 3) Wheels empty: everything pending lives in the overflow heap
    // (size_ > 0 guarantees it is non-empty). Re-anchor the cursor on the
    // earliest overflow page and pull that whole page back in.
    const auto t0 = static_cast<uint64_t>(overflow_.front().at.ns());
    cursor_ = t0 & ~((uint64_t{1} << kShift0) - 1);
    due_end_ = cursor_ + (uint64_t{1} << kShift0);
    const uint64_t page = t0 >> kTopPageShift;
    while (!overflow_.empty() &&
           (static_cast<uint64_t>(overflow_.front().at.ns()) >> kTopPageShift) ==
               page) {
      std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
      Event e = std::move(overflow_.back());
      overflow_.pop_back();
      place(std::move(e));
    }
    if (profile_) ++profile_->overflow_drains;
  }
}

const Event& EventQueue::top() {
  if (size_ == 0) throw std::logic_error("EventQueue::top on empty queue");
  settle();
  return due_.front();
}

Event EventQueue::pop() {
  if (size_ == 0) throw std::logic_error("EventQueue::pop on empty queue");
  settle();
  std::pop_heap(due_.begin(), due_.end(), EventAfter{});
  Event e = due_.back();
  due_.pop_back();
  --size_;
  return e;
}

void EventQueue::clear() {
  due_.clear();
  overflow_.clear();
  for (auto& level : slots_) {
    for (auto& slot : level) slot.clear();
  }
  for (auto& level : occ_) level.fill(0);
  warm_.fill(0);
  cursor_ = 0;
  due_end_ = uint64_t{1} << kShift0;
  size_ = 0;
  next_seq_ = 0;
}

}  // namespace ccas
