// Open-loop workload engine: drives flow arrivals and departures from a
// WorkloadSpec — session arrivals (Poisson or deterministic), per-class
// flow sizes and CCAs, and application pacing models that gate the sender
// through TcpSender::enable_app_gate / app_release. Flow churn is its
// simplest case: one bulk class of bounded-Pareto sizes. Allocation-free
// (DESIGN.md §12): arrivals are events on this handler, flows live in
// FlowTable slabs, departures go through a grace-period reaper that parks
// the slab for the next arrival, so steady state touches the heap only
// through amortized vector growth.
//
// Determinism: the engine owns a dedicated Rng seeded with
// derive_workload_seed(cell_seed), so it never draws from the master
// stream — every pre-workload golden keeps its bytes — and it runs on the
// core simulator under --shards > 1, so its arrival schedule does not
// depend on the shard count (the relay never claims dynamic flow ids).
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/flow_table.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/stats/fct.h"
#include "src/util/rng.h"
#include "src/workload/spec.h"

namespace ccas {

// Grace before a completed workload flow's slab may be recycled: an upper
// bound on the lifetime of anything still referencing the endpoints from
// inside the network. `max_rtt` must cover every workload class and
// every background flow group.
[[nodiscard]] TimeDelta workload_reap_grace(const DumbbellConfig& net,
                                            TimeDelta max_rtt);

class WorkloadEngine final : public EventHandler {
 public:
  // `spec` must be validated and enabled. Dynamic flow ids start at
  // `first_flow_id` (after any fixed background flows) and are never
  // reused. `end_time` stops new arrivals; flows in flight then are
  // counted abandoned at finalize().
  WorkloadEngine(Simulator& sim, DumbbellTopology& topo, FlowTable& table,
                 const WorkloadSpec& spec, const TcpSenderConfig& tcp,
                 const TcpReceiverConfig& receiver, DataRate bottleneck_rate,
                 uint32_t first_flow_id, Time end_time, TimeDelta grace,
                 uint64_t seed);

  // Schedules the first arrival at t = 0.
  void begin();

  void on_event(uint32_t tag, uint64_t arg) override;

  // Marks still-live flows abandoned and appends one summary per class (in
  // spec order). Call once, after the simulation has run to end_time.
  void finalize(std::vector<WorkloadClassResult>& out);

  // Exact goodput of every workload flow (reaped flows were accumulated at
  // teardown, live ones read here). Integer bytes: order-independent.
  [[nodiscard]] int64_t goodput_bytes() const;

  [[nodiscard]] uint64_t flows_started() const { return started_; }
  [[nodiscard]] uint64_t flows_completed() const { return completed_; }
  [[nodiscard]] uint64_t flows_rejected() const { return rejected_; }

 private:
  struct State {
    FlowTable::Slot slot;
    Time started = Time::zero();
    uint64_t size = 0;
    uint32_t flow_id = 0;
    uint32_t cls = 0;  // index into spec_.classes
    // Bumped at reap: pending app-timer events carrying an older
    // generation are stale (the slot was recycled) and ignored.
    uint32_t gen = 0;
    bool live = false;
    bool completed = false;
  };

  void on_arrival();
  void on_complete(uint32_t si);
  void on_app_drained(uint32_t si);
  void on_app_timer(uint32_t gen, uint32_t si);
  void on_reap(uint32_t si);
  [[nodiscard]] uint32_t pick_class();
  [[nodiscard]] double ideal_fct_s(const WorkloadClass& cls,
                                   uint64_t segments) const;

  Simulator& sim_;
  DumbbellTopology& topo_;
  FlowTable& table_;
  const WorkloadSpec& spec_;
  const TcpSenderConfig tcp_;
  const TcpReceiverConfig receiver_;
  const DataRate bottleneck_rate_;
  const Time end_time_;
  const TimeDelta grace_;
  Rng rng_;  // dedicated stream: derive_workload_seed(cell_seed)

  std::vector<double> cum_weight_;  // class-pick thresholds
  std::vector<FctRecorder> recorders_;  // one per class
  std::vector<State> states_;
  std::vector<uint32_t> free_states_;
  uint64_t active_ = 0;
  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint32_t next_flow_id_ = 0;
  int64_t reaped_goodput_bytes_ = 0;
};

}  // namespace ccas
