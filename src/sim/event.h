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

// Causal ordering key for sharded-mode simulators (src/sim/parallel/).
// `armed_at` is the simulated time of the push that created the event;
// `ctr` orders pushes within one nanosecond of one engine (a per-engine
// counter that resets when the engine's clock moves — 32 bits bounds
// same-nanosecond pushes, not the run length). A serial push happens
// during the dispatch of its parent, so serial FIFO order is exactly
// lexicographic (at, armed_at, ctr); the parallel engines stamp these
// fields to reconstruct that order across domains. Serial simulators
// leave the key zero, which degenerates to the historical (at, seq) FIFO.
struct CausalKey {
  Time armed_at = Time::zero();
  uint32_t ctr = 0;
};

// An event's whole order key, taken before the event exists
// (Simulator::reserve_key) and handed to Simulator::schedule_reserved
// later: the queue's FIFO sequence number plus, under causal keys, the
// causal key. An event pushed with a reserved key dispatches exactly where
// a push at reservation time would have, provided it is pushed before any
// event ordered after it is dispatched. NetemDelay's lanes rely on this to
// hold one pending event per lane instead of one per packet.
struct EventKey {
  uint64_t seq = 0;
  CausalKey causal;
};

struct Event {
  Time at;
  // Monotonic sequence number: ties in `at` are broken FIFO so simulations
  // are deterministic regardless of heap internals.
  uint64_t seq = 0;
  Time armed_at = Time::zero();
  EventHandler* handler = nullptr;
  uint64_t arg = 0;
  uint32_t ctr = 0;
  uint32_t tag = 0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.at != b.at) return a.at > b.at;
    // Zero for serial runs, so this reduces to the historical (at, seq).
    if (a.armed_at != b.armed_at) return a.armed_at > b.armed_at;
    if (a.ctr != b.ctr) return a.ctr > b.ctr;
    return a.seq > b.seq;
  }
};

}  // namespace ccas
