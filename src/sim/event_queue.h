// Pending-event set with stable FIFO tie-breaking: a hierarchical
// timing-wheel / calendar-queue hybrid.
//
// Layout. Simulated time (integer ns) is bucketed into three wheel levels
// of 256 slots each; a level-0 slot spans 2^12 ns (~4.1 us), a level-1
// slot one level-0 wheel (~1.05 ms), a level-2 slot one level-1 wheel
// (~268 ms). Together the wheels cover ~68.7 s past the cursor; anything
// farther out (RTO backoff tails, end-of-run bookkeeping) goes to a small
// binary min-heap overflow tier, drained one 2^36 ns page at a time as the
// cursor reaches it.
//
// The events of the slot currently being consumed live in `due_`, a tiny
// (time, seq)-ordered heap, so pop() is O(log due-size) with due-size
// bounded by the events of one 4.1 us slot — effectively O(1) — and pushes
// into the current slot or any wheel slot are O(1). Occupancy bitmaps (4
// words per level) make finding the next non-empty slot a few countr_zero
// scans instead of a 256-slot walk.
//
// Ordering is identical to the old binary heap: every event carries a
// sequence number from one monotone counter, and each tier orders by
// (time, seq), so dispatch order — including same-timestamp FIFO ties — is
// bit-exact with the golden traces recorded on the heap implementation.
// A number is normally taken at push; reserve_seq() takes it earlier, and
// the event then sorts as if it had been pushed at reservation time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/event.h"

namespace ccas {

struct SimProfile;

class EventQueue {
 public:
  explicit EventQueue(SimProfile* profile = nullptr);

  void push(Time at, EventHandler* handler, uint32_t tag, uint64_t arg);
  // Sharded-mode push carrying a causal ordering key (see event.h).
  void push_keyed(Time at, CausalKey key, EventHandler* handler, uint32_t tag,
                  uint64_t arg);
  // Takes the next FIFO sequence number without pushing anything;
  // push_reserved files an event under it later (EventKey in event.h).
  [[nodiscard]] uint64_t reserve_seq() { return next_seq_++; }
  void push_reserved(Time at, const EventKey& key, EventHandler* handler,
                     uint32_t tag, uint64_t arg);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t size() const { return size_; }
  // Earliest event. Not const: may settle wheel slots into the due heap.
  // Throws std::logic_error on an empty queue.
  [[nodiscard]] const Event& top();

  // Removes and returns the earliest event (FIFO among equal timestamps).
  // Throws std::logic_error on an empty queue (the old binary heap read
  // heap_.front() of an empty vector — UB).
  Event pop();

  // The next event already settled into the due heap, or nullptr when the
  // current slot is drained (the true next event then still sits in a
  // wheel slot). Never settles, so it is O(1) and has no observable effect
  // on dispatch order — it exists purely so the run loop can issue a
  // prefetch for event N+1 while event N executes.
  [[nodiscard]] const Event* peek_due() const {
    return due_.empty() ? nullptr : due_.data();
  }

  void clear();

 private:
  static constexpr int kLevels = 3;
  static constexpr int kSlotBits = 8;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;    // 256
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr int kShift0 = 12;  // level-0 slot width: 2^12 ns
  static constexpr int kTopPageShift = kShift0 + kLevels * kSlotBits;  // 36
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  // Smallest buffer a wheel slot gets on first touch (1.5 KB).
  static constexpr size_t kMinSlotEvents = 32;

  // Files an event into due_/wheel/overflow relative to the cursor.
  void place(Event&& e);
  // Refills due_ from the wheels/overflow until it is non-empty.
  // Precondition: size_ > 0.
  void settle();
  [[nodiscard]] size_t next_occupied(const std::array<uint64_t, 4>& occ,
                                     size_t from) const;

  // (time, seq) min-heaps via std::push_heap/pop_heap with EventAfter.
  std::vector<Event> due_;       // events of the slot being consumed
  std::vector<Event> overflow_;  // beyond the wheels' horizon
  std::vector<Event> scratch_;   // cascade staging; capacity recycled
  // Per-level high-water slot occupancy: cold slots reserve this on first
  // touch instead of re-growing from zero as the coarse rings advance.
  std::array<size_t, kLevels> warm_{};

  std::array<std::array<std::vector<Event>, kSlots>, kLevels> slots_;
  std::array<std::array<uint64_t, 4>, kLevels> occ_{};  // per-level bitmaps

  // Wheel position: cursor_ is the start (ns) of the level-0 slot feeding
  // due_; events with time < due_end_ = cursor_ + 2^12 belong in due_.
  // Invariant: cursor_ <= every pending event time (the simulator never
  // schedules into the past), so slot indices never wrap behind it.
  uint64_t cursor_ = 0;
  uint64_t due_end_ = uint64_t{1} << kShift0;

  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  SimProfile* profile_ = nullptr;
};

}  // namespace ccas
