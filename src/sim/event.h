// Core event types for the discrete-event simulator.
//
// The hot path avoids std::function: events carry a raw (non-owning) pointer
// to an EventHandler plus a small integer tag and argument. Handlers are
// long-lived simulation objects (links, queues, TCP endpoints) that outlive
// every event referencing them.
#pragma once

#include <cstdint>

#include "src/util/units.h"

namespace ccas {

class EventHandler {
 public:
  virtual ~EventHandler() = default;
  // `tag` distinguishes event kinds within one handler; `arg` is an opaque
  // payload (index, generation counter, ...).
  virtual void on_event(uint32_t tag, uint64_t arg) = 0;
};

// An event's order key, taken before the event exists
// (Simulator::reserve_key) and handed to Simulator::schedule_reserved
// later: the queue's FIFO sequence number. An event pushed with a reserved
// key dispatches exactly where a push at reservation time would have,
// provided it is pushed before any event ordered after it is dispatched.
// NetemDelay's lanes rely on this to hold one pending event per lane
// instead of one per packet.
struct EventKey {
  uint64_t seq = 0;
};

struct Event {
  Time at;
  // Monotonic sequence number: ties in `at` are broken FIFO so simulations
  // are deterministic regardless of heap internals.
  uint64_t seq = 0;
  EventHandler* handler = nullptr;
  uint64_t arg = 0;
  uint32_t tag = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace ccas
