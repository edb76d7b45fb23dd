// The simulation kernel: a virtual clock and an event loop.
//
// All simulation objects (links, queues, TCP endpoints, experiment logic)
// hold a reference to one Simulator, schedule events on it, and are driven
// by EventHandler::on_event callbacks. Simulations are single-threaded and
// fully deterministic given a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/check/hooks.h"
#include "src/sim/budget.h"
#include "src/sim/event_queue.h"
#include "src/sim/profiler.h"
#include "src/util/node_pool.h"

namespace ccas {

class Simulator {
 public:
  Simulator() : queue_(&profile_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] size_t pending_events() const { return queue_.size(); }

  // Always-on lightweight profiler (dispatch/scheduler/timer counters plus
  // wall-clock accumulated over run()/run_until()).
  [[nodiscard]] const SimProfile& profile() const { return profile_; }
  [[nodiscard]] SimProfile& mutable_profile() { return profile_; }

  // Spill-node pool shared by every per-flow container in this simulation
  // (RunList runs, and anything else with inline-first storage). One pool
  // per Simulator: the pool is single-threaded by construction, since a
  // Simulator only ever runs on one thread at a time.
  [[nodiscard]] NodePool& node_pool() { return node_pool_; }

  // Fast-path scheduling: handler/tag/arg, no allocation.
  void schedule_at(Time at, EventHandler* handler, uint32_t tag, uint64_t arg = 0);
  void schedule_in(TimeDelta delay, EventHandler* handler, uint32_t tag, uint64_t arg = 0);
  // Sharded-mode push with an explicit causal key (cross-engine handoffs
  // carry the key allocated on the engine where the serial push happened).
  void schedule_at_keyed(Time at, CausalKey key, EventHandler* handler,
                         uint32_t tag, uint64_t arg = 0);
  // Deferred scheduling: reserve_key() takes the order key a schedule_at
  // call made now would get (the FIFO sequence number, plus the causal
  // key when enabled) without pushing; schedule_reserved() pushes under
  // it later. The event then dispatches exactly where the immediate push
  // would have, as long as it is pushed before any event that sorts after
  // it dispatches — e.g. by a handler whose own event sorts before it.
  [[nodiscard]] EventKey reserve_key() {
    return EventKey{queue_.reserve_seq(), causal_ ? allocate_push_key() : CausalKey{}};
  }
  void schedule_reserved(Time at, const EventKey& key, EventHandler* handler,
                         uint32_t tag, uint64_t arg = 0);

  // --- Causal ordering (sharded runs; see event.h and parallel/fabric.h).
  //
  // With causal keys enabled, every schedule_* call stamps the event with
  // (armed_at = now, ctr = next per-ns push slot), so same-timestamp
  // dispatch order is derived from simulation state instead of this
  // engine's private push sequence, and the shard fabric can interleave
  // events of different engines exactly as the serial FIFO would have.
  // Serial simulators never enable this: their events keep zero keys and
  // the historical (at, seq) order, byte-identical to every recorded run.
  void enable_causal_keys() { causal_ = true; }
  [[nodiscard]] bool causal_keys_enabled() const { return causal_; }
  // Consumes the next push slot at now() without scheduling — the shard
  // fabric's relay calls this where the serial run would have pushed, so
  // later slots of the same nanosecond keep their serial order. Ordering
  // is by relative counter value only, so it does not matter that this
  // engine's absolute values differ from the serial run's: every pair of
  // keys the comparator meets was allocated on one engine in that
  // engine's serial-equivalent dispatch order (injection replay included
  // — the fabric interleaves injections with this engine's dispatches in
  // exactly the serial order, so their synchronous pushes consume slots
  // in serial relative order too).
  [[nodiscard]] CausalKey allocate_push_key();
  // Key of the event currently being dispatched (the root of any sends it
  // performs); zero outside dispatch or with causal keys disabled.
  [[nodiscard]] Time current_armed_at() const { return cur_armed_at_; }
  [[nodiscard]] uint32_t current_ctr() const { return cur_ctr_; }
  // Setup-phase push slots come from a counter shared across all of a
  // fabric's engines, so cross-engine setup pushes keep their (serial)
  // construction order; the fabric detaches it before the first window.
  void share_setup_counter(uint32_t* shared) { push_major_ptr_ = shared; }
  void unshare_setup_counter() {
    push_major_ = *push_major_ptr_;
    push_major_ptr_ = &push_major_;
  }

  // Convenience scheduling for tests, examples and cold paths; allocates.
  void schedule_fn_at(Time at, std::function<void()> fn);
  void schedule_fn_in(TimeDelta delay, std::function<void()> fn);

  // Runs until the event queue drains (or stop() is called).
  void run();
  // Runs events with timestamp <= deadline, then sets now() = deadline.
  void run_until(Time deadline);
  // Half-open variant for the shard fabric's conservative windows: runs
  // events with timestamp < bound, then sets now() = bound. Events at
  // exactly `bound` stay queued (they belong to the next window, after
  // cross-domain exchange). Cheap when no event is due: the wall-clock
  // probes are skipped entirely, so per-injection replay calls cost one
  // queue peek.
  void run_until_excl(Time bound);
  // Runs events whose (at, armed_at, ctr) key is strictly below the given
  // key, then sets now() = at. The shard fabric uses this to place each
  // cross-domain injection exactly where the serial FIFO dispatched its
  // root event among this engine's same-nanosecond events.
  void run_until_before(Time at, CausalKey key);
  void run_for(TimeDelta delta) { run_until(now_ + delta); }
  // Requests the loop to exit after the current event.
  void stop() { stopped_ = true; }

  // Invariant-audit hook point. Components guard their hook calls with
  // `if (auto* a = sim.auditor())`; with CCAS_CHECK_HOOKS=OFF auditor()
  // constant-folds to nullptr and those branches compile away.
  [[nodiscard]] check::InvariantAuditor* auditor() const {
    if constexpr (!check::kAuditHooksCompiled) return nullptr;
    return auditor_;
  }
  void set_auditor(check::InvariantAuditor* a) { auditor_ = a; }

  // Installs a cooperative resource budget (budget.h); nullptr disables.
  // The budget (and its cancellation token) must outlive every
  // run()/run_until() call made while installed. With no budget the
  // dispatch path is a single null-pointer test, so unbudgeted runs stay
  // byte- and event-identical to builds without this layer.
  void set_budget(const SimBudget* budget) { budget_ = budget; }
  [[nodiscard]] const SimBudget* budget() const { return budget_; }

 private:
  class FnDispatcher : public EventHandler {
   public:
    explicit FnDispatcher(Simulator& sim) : sim_(sim) {}
    void on_event(uint32_t tag, uint64_t arg) override;

   private:
    friend class Simulator;
    Simulator& sim_;
    uint64_t next_id_ = 0;
    std::unordered_map<uint64_t, std::function<void()>> pending_;
  };

  void dispatch(const Event& e);
  // Throws BudgetExceeded when the installed budget is exceeded. The
  // event ceiling is exact (checked per dispatch); the cancellation token
  // and the RSS estimate are polled every 1024 events.
  void enforce_budget() const;

  Time now_ = Time::zero();
  SimProfile profile_;  // before queue_: the queue holds a pointer into it
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  // Causal-key state (inert unless enable_causal_keys() was called).
  bool causal_ = false;
  Time last_push_ns_ = Time::zero();
  uint32_t push_major_ = 0;
  uint32_t* push_major_ptr_ = &push_major_;
  Time cur_armed_at_ = Time::zero();
  uint32_t cur_ctr_ = 0;
  check::InvariantAuditor* auditor_ = nullptr;
  const SimBudget* budget_ = nullptr;
  NodePool node_pool_;
  FnDispatcher fn_dispatcher_{*this};
};

}  // namespace ccas
