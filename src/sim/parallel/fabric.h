// The conservative parallel engine: N edge domains + the core bottleneck,
// synchronized in latency-bounded windows.
//
// Protocol (DESIGN.md §11). The dumbbell's only inter-domain latency is
// the netem propagation delay between the core and the endpoints, so the
// classic conservative lookahead L = min over sharded flows of their
// minimum one-way delay. Simulated time advances in windows of
// win = L - 1ns; within each window the fabric runs two phases:
//
//   1. Edge phase (parallel): every domain runs its events in [W, B)
//      (inclusive of B on the caller's final window). Endpoint emissions
//      land in per-domain gate buffers — the edge->core hop is zero-delay
//      in the serial topology, so they carry their emission timestamps.
//   2. Core phase (caller's thread): the captured emissions are merged,
//      stably sorted by (time, flow_id), and replayed into the core
//      interleaved with the core's own events — each injection at time t
//      applies after all core events < t and before core events at t.
//      Netem releases for sharded flows are intercepted by the relay and
//      staged; their deliver_at is >= W + L > B, strictly beyond every
//      event either side processes this window, which is the whole
//      correctness argument: no domain can ever need an event it has not
//      yet been handed.
//
// At the barrier the staged handoffs are scheduled into their domains'
// delivery stages (one event per packet, same as the serial netem), the
// cooperative budget is enforced on summed counts, and the next window
// begins. Every stage of the exchange is ordered by simulation state
// only — thread interleaving cannot reach any of it — so a sharded run
// is deterministic. It is byte-identical to the serial run on the golden
// cells and the small random configs of the property suites, but at
// CoreScale flow counts with the default edge jitter it is known to
// diverge from serial (ROADMAP item 1).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/delay_line.h"
#include "src/sim/parallel/delivery.h"
#include "src/sim/parallel/exchange.h"
#include "src/sim/parallel/shard_plan.h"
#include "src/sim/simulator.h"

namespace ccas {

// Persistent worker threads, one per domain. run(fn) executes fn(i) for
// every i on worker i and blocks until all are done; a worker's exception
// is captured and rethrown on the caller (lowest index wins, so repeated
// runs fail deterministically).
class WorkerPool {
 public:
  explicit WorkerPool(int workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void run(const std::function<void(int)>& fn);

 private:
  void worker_main(int index);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* fn_ = nullptr;
  uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

class ShardFabric final : public NetemRelay {
 public:
  // `lookahead` must be >= 2ns (window length is lookahead - 1ns).
  ShardFabric(Simulator& core, const ShardPlan& plan, TimeDelta lookahead);
  ~ShardFabric() override;

  [[nodiscard]] int shards() const { return plan_.shards; }
  [[nodiscard]] Simulator& domain_sim(int d) { return domains_[d]->sim; }
  [[nodiscard]] DeliveryStage& delivery(int d) { return domains_[d]->delivery; }
  [[nodiscard]] GateSink& data_gate(int d) { return domains_[d]->data_gate; }
  [[nodiscard]] GateSink& ack_gate(int d) { return domains_[d]->ack_gate; }

  // Where replayed emissions enter the core: the topology's per-flow data
  // entry (switch or host NIC) and the shared ACK entry.
  void set_core_data_entry(uint32_t flow_id, PacketSink* entry);
  void set_core_ack_entry(PacketSink* entry) { core_ack_entry_ = entry; }

  // NetemRelay: core netems hand over releases for sharded flows.
  bool offload(uint32_t flow_id, Time deliver_at, Packet&& pkt) override;

  // Cooperative budget, enforced on summed counts at window barriers; the
  // cancellation token is additionally installed per simulator so the
  // wall-clock watchdog stays responsive inside long windows. The budget
  // must outlive every run_to call. nullptr disables.
  void set_budget(const SimBudget* budget);

  // Advances every domain and the core to `target` (inclusive, matching
  // the serial Simulator::run_until semantics at harness sync points).
  // After it returns all simulators sit exactly at `target` and all
  // exchange buffers are empty, so the caller may read cross-domain state
  // freely until the next run_to.
  void run_to(Time target);

  [[nodiscard]] Time now() const { return now_; }
  // Total events dispatched across the core and every domain — the
  // sharded equivalent of the serial sim.events_processed().
  [[nodiscard]] uint64_t total_events() const;
  // Counter sums across all simulators, with shard accounting attached
  // and wall_seconds replaced by the fabric's own end-to-end clock.
  [[nodiscard]] SimProfile aggregate_profile() const;

 private:
  struct Domain {
    Simulator sim;
    DeliveryStage delivery;
    std::vector<IngressEntry> ingress;   // gate captures, drained per window
    GateSink data_gate;
    GateSink ack_gate;
    std::vector<HandoffEntry> staging;  // core->edge, flushed at barriers
    Domain()
        : delivery(sim),
          data_gate(sim, /*is_data=*/true, ingress),
          ack_gate(sim, /*is_data=*/false, ingress) {}
  };

  void enforce_budget_at_barrier() const;

  Simulator& core_;
  ShardPlan plan_;
  TimeDelta win_;
  Time now_ = Time::zero();

  std::vector<std::unique_ptr<Domain>> domains_;
  WorkerPool pool_;
  std::vector<PacketSink*> core_data_entries_;
  PacketSink* core_ack_entry_ = nullptr;
  std::vector<IngressEntry> merged_;  // reused scratch for the window merge

  const SimBudget* budget_ = nullptr;
  SimBudget cancel_only_;  // per-sim install: cancellation token only

  uint64_t windows_run_ = 0;
  double fabric_wall_seconds_ = 0.0;
  double core_wall_seconds_ = 0.0;
  double edge_wall_seconds_ = 0.0;

  // Push-slot counter shared by every engine during single-threaded
  // setup, so cross-engine setup pushes keep their construction order;
  // detached (each engine continues on its own counter) before the first
  // window runs.
  uint32_t setup_major_ = 0;
  bool counters_detached_ = false;
};

}  // namespace ccas
