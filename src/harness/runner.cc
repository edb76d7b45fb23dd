#include "src/harness/runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cca/cca.h"
#include "src/check/audit.h"
#include "src/harness/flow_table.h"
#include "src/stats/fairness.h"
#include "src/net/topology.h"
#include "src/sim/parallel/fabric.h"
#include "src/sim/parallel/shard_plan.h"
#include "src/sim/simulator.h"
#include "src/stats/convergence.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/workload/engine.h"

namespace ccas {

namespace {

// Per-flow state lives in one FlowTable slab per flow (rng, receiver,
// sender, CCA packed contiguously — DESIGN.md §12); this struct only
// aggregates the pointers. The flow's Rng must outlive its sender — CCAs
// (e.g. BBR's randomized ProbeBW phase) keep a reference to it — which the
// table's reverse-construction-order teardown guarantees.
struct Flow {
  Rng* rng = nullptr;
  TcpSender* sender = nullptr;
  TcpReceiver* receiver = nullptr;
  int group = 0;
};

using AuditorPtr = std::unique_ptr<check::InvariantAuditor>;

FlowCounters snapshot(Time now, const Flow& flow, const QueueDisc& queue,
                      uint32_t flow_id) {
  FlowCounters c;
  c.at = now;
  const TcpSenderStats& s = flow.sender->stats();
  c.segments_sent = s.segments_sent;
  c.retransmits = s.retransmits;
  c.delivered = s.delivered;
  c.congestion_events = s.congestion_events;
  c.rto_events = s.rto_events;
  c.ecn_reductions = s.ecn_reductions;
  c.queue_drops = flow_id < queue.per_flow_drops().size()
                      ? queue.per_flow_drops()[flow_id]
                      : 0;
  c.queue_marks = flow_id < queue.per_flow_marks().size()
                      ? queue.per_flow_marks()[flow_id]
                      : 0;
  c.rcv_in_order = flow.receiver->rcv_nxt();
  c.rtt_sample_sum_ns = s.rtt_sample_sum_ns;
  c.rtt_sample_count = s.rtt_sample_count;
  return c;
}

// Fixed flows shard; a workload-only spec runs on the core at any shard
// count, because dynamic flows are always core-resident (engine.h) and the
// domains would sit idle.
bool sharded(const ExperimentSpec& spec) {
  return spec.shards > 1 && spec.total_flows() > 0;
}

// Conservative lookahead: the minimum one-way propagation delay of any
// sharded flow. register_flow splits base_rtt as floor/ceil halves, and
// forward jitter only adds, so the forward floor half is the minimum.
// Workload classes are deliberately absent: dynamic flows live on the
// core simulator and never cross the conservative window.
TimeDelta min_lookahead(const ExperimentSpec& spec) {
  TimeDelta lookahead = TimeDelta::infinite();
  for (const FlowGroup& g : spec.groups) {
    lookahead = std::min(lookahead, g.rtt / 2);
  }
  return lookahead;
}

void validate(const ExperimentSpec& spec) {
  if (spec.groups.empty() && !spec.workload.enabled()) {
    throw std::invalid_argument("experiment has no flow groups");
  }
  for (const auto& g : spec.groups) {
    if (g.count <= 0) throw std::invalid_argument("flow group with count <= 0");
    if (g.rtt <= TimeDelta::zero()) throw std::invalid_argument("non-positive RTT");
    Rng probe(0);
    (void)make_cca(g.cca, probe);  // throws for unknown names
  }
  if (spec.scenario.measure <= TimeDelta::zero()) {
    throw std::invalid_argument("non-positive measurement window");
  }
  if (spec.shards < 1) {
    throw std::invalid_argument("shards must be >= 1");
  }
  if (sharded(spec)) {
    if (spec.shards > spec.total_flows()) {
      throw std::invalid_argument(
          "shards exceed flow count: every domain needs at least one flow");
    }
    if (min_lookahead(spec) < TimeDelta::nanos(2)) {
      throw std::invalid_argument(
          "--shards > 1 needs a minimum flow RTT of at least 4ns: the "
          "conservative window is half the smallest RTT");
    }
  }
  spec.scenario.net.impairments.validate();
  spec.scenario.net.qdisc.validate();
  spec.workload.validate();
}

// Grace bound for the workload reaper: covers every class and every fixed
// group (background ACKs share the same return path).
TimeDelta workload_grace(const ExperimentSpec& spec, const DumbbellConfig& net) {
  TimeDelta max_rtt = TimeDelta::zero();
  for (const FlowGroup& g : spec.groups) max_rtt = std::max(max_rtt, g.rtt);
  for (const WorkloadClass& c : spec.workload.classes) {
    max_rtt = std::max(max_rtt, c.rtt);
  }
  return workload_reap_grace(net, max_rtt);
}

// Final audit checkpoint: the whole run must end conservation-clean. A
// sharded run also checks every domain, then the global conservation
// equation over the summed counters (every packet injected anywhere is
// delivered, dropped, or held somewhere — the delivery stages register as
// holders, and all exchange buffers are empty at a barrier).
void final_audit(check::InvariantAuditor& core, Time now, ShardFabric* fabric,
                 const std::vector<AuditorPtr>& domains) {
  core.run_checks(now);
  for (size_t d = 0; d < domains.size(); ++d) {
    domains[d]->run_checks(fabric->domain_sim(static_cast<int>(d)).now());
  }
  if (!domains.empty()) {
    int64_t inj_p = 0, inj_b = 0, del_p = 0, del_b = 0;
    int64_t drop_p = 0, drop_b = 0, held_p = 0, held_b = 0;
    auto fold = [&](const check::InvariantAuditor& a) {
      inj_p += a.injected_packets();
      inj_b += a.injected_bytes();
      del_p += a.delivered_packets();
      del_b += a.delivered_bytes();
      drop_p += a.dropped_packets();
      drop_b += a.dropped_bytes();
      a.held_totals(held_p, held_b);
    };
    fold(core);
    for (const AuditorPtr& a : domains) fold(*a);
    if (inj_p != del_p + drop_p + held_p || inj_b != del_b + drop_b + held_b) {
      core.record_external_violation(
          "conservation", fabric->now(),
          "global (cross-domain): injected " + std::to_string(inj_p) + " pkts/" +
              std::to_string(inj_b) + " B != delivered " + std::to_string(del_p) +
              "/" + std::to_string(del_b) + " + dropped " + std::to_string(drop_p) +
              "/" + std::to_string(drop_b) + " + in-flight " +
              std::to_string(held_p) + "/" + std::to_string(held_b));
    }
  }
  uint64_t total = core.total_violations();
  for (const AuditorPtr& a : domains) total += a->total_violations();
  if (total == 0) return;
  std::string report = core.report();
  for (size_t d = 0; d < domains.size(); ++d) {
    if (domains[d]->total_violations() > 0) {
      report += "\ndomain " + std::to_string(d) + ": " + domains[d]->report();
    }
  }
  throw check::AuditViolationError(report);
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, nullptr);
}

// One pipeline for every run: build -> warm-up -> measure -> assemble.
// Flow endpoints live either on the core simulator or, when the spec
// shards, on the ShardFabric's edge domains (`fabric` engaged). Only the
// steps marked "Placement:" differ between the two; the serial path still
// drives Simulator::run_until directly, with no fabric in the loop.
ExperimentResult run_experiment(const ExperimentSpec& spec, const SimBudget* budget) {
  validate(spec);

  Simulator sim;  // the core: switch, qdisc, link, impairments, netems
  Rng rng(spec.seed);

  // Auditors must attach before the topology is built so components
  // register their packet holders; they are declared first so they outlive
  // everything that may call hooks during teardown. In a sharded run each
  // simulator gets its own auditor, and each skips the local conservation
  // equation (packets legally cross domains); final_audit checks the
  // global one.
  const bool audit_on = check::kAuditHooksCompiled &&
                        (spec.audit || check::check_enabled_from_env());
  AuditorPtr auditor;
  if (audit_on) {
    auditor = std::make_unique<check::InvariantAuditor>(sim);
    auditor->set_conservation_external(sharded(spec));
  }

  // Impairment seed derivation: a pure function of the experiment seed,
  // independent of the master Rng's stream (whose consumption order the
  // pre-impairment goldens depend on), so sweep cells stay byte-identical
  // at any --jobs level.
  DumbbellConfig net = spec.scenario.net;
  if ((net.impairments.enabled() || net.impairments.force_stage) &&
      net.impairments.seed == 0) {
    net.impairments.seed = derive_impairment_seed(spec.seed);
  }
  // Qdisc seed: same pattern under its own salt, so RED/PIE probability
  // draws are independent of both the master stream and the impairment
  // stream (drop-tail and the deterministic AQMs never draw from it).
  if (net.qdisc.enabled() && net.qdisc.seed == 0) {
    net.qdisc.seed = derive_qdisc_seed(spec.seed);
  }
  DumbbellTopology topo(sim, net);
  topo.reserve_flows(static_cast<uint32_t>(spec.total_flows()));
  QueueDisc& queue = topo.bottleneck_queue();
  queue.set_drop_log_enabled(spec.record_drop_log);

  // Placement: the fabric and its per-domain auditors exist only when the
  // run shards. The core netems hand sharded flows' releases to the
  // fabric's relay, which routes them to the owning domain.
  ShardPlan plan;
  std::optional<ShardFabric> fabric;
  std::vector<AuditorPtr> domain_auditors;
  if (sharded(spec)) {
    plan.shards = spec.shards;
    plan.sharded_flows = static_cast<uint32_t>(spec.total_flows());
    fabric.emplace(sim, plan, min_lookahead(spec));
    topo.forward_netem().set_relay(&*fabric);
    topo.reverse_netem().set_relay(&*fabric);
    fabric->set_core_ack_entry(&topo.ack_entry());
    if (audit_on) {
      domain_auditors.reserve(static_cast<size_t>(plan.shards));
      for (int d = 0; d < plan.shards; ++d) {
        auto a = std::make_unique<check::InvariantAuditor>(fabric->domain_sim(d));
        a->set_conservation_external(true);
        DeliveryStage* stage = &fabric->delivery(d);
        a->register_holder("shard-delivery", [stage](int64_t& pkts, int64_t& bytes) {
          pkts += static_cast<int64_t>(stage->in_transit());
          bytes += stage->in_transit_bytes();
        });
        domain_auditors.push_back(std::move(a));
      }
    }
  }

  // Build flows: ids are assigned in group order, so flows of one group
  // are spread round-robin over the sender/receiver pairs (and, sharded,
  // over the domains) like all others. Declared before `flows`: senders
  // capture references to its elements (stable — sized once, never
  // reallocated) in their event callbacks.
  std::vector<std::vector<Time>> congestion_log;
  if (spec.record_congestion_log) {
    congestion_log.resize(static_cast<size_t>(spec.total_flows()));
  }
  // Declared after the fabric so flows are torn down while every domain
  // simulator is still alive.
  FlowTable table;
  std::vector<Flow> flows;
  flows.reserve(static_cast<size_t>(spec.total_flows()));
  // ECN negotiation: senders mark ECT (and react to ECE) exactly when the
  // bottleneck qdisc marks. Derived from the qdisc block, so it is not a
  // separate spec knob.
  TcpSenderConfig tcp = spec.tcp;
  tcp.ecn_enabled = net.qdisc.enabled() && net.qdisc.ecn;
  uint32_t flow_id = 0;
  for (size_t gi = 0; gi < spec.groups.size(); ++gi) {
    const FlowGroup& g = spec.groups[gi];
    for (int i = 0; i < g.count; ++i, ++flow_id) {
      // Placement: the flow's simulator and the sinks its endpoints emit
      // into (the topology's entries, or the domain's capture gates).
      const int d = plan.domain_of(flow_id);
      Simulator& fsim = fabric ? fabric->domain_sim(d) : sim;
      PacketSink* data_in = &topo.data_entry(flow_id);
      PacketSink* ack_in = &topo.ack_entry();
      if (fabric) {
        data_in = &fabric->data_gate(d);
        ack_in = &fabric->ack_gate(d);
      }
      const FlowTable::Slot slot = table.create(
          fsim, flow_id, rng.fork(), g.cca, data_in, ack_in, tcp, spec.receiver);
      Flow f;
      f.rng = slot.rng;
      f.group = static_cast<int>(gi);
      f.receiver = slot.receiver;
      f.sender = slot.sender;
      topo.register_flow(flow_id, g.rtt, f.sender, f.receiver);
      if (fabric) {
        fabric->delivery(d).register_flow(flow_id, f.sender, f.receiver);
        fabric->set_core_data_entry(flow_id, &topo.data_entry(flow_id));
      }
      if (spec.record_congestion_log) {
        std::vector<Time>& log = congestion_log[flow_id];
        f.sender->set_congestion_event_callback(
            [&log](Time at) { log.push_back(at); });
      }
      if (auditor) {
        (fabric ? *domain_auditors[static_cast<size_t>(d)] : *auditor)
            .watch_sender(flow_id, *f.sender);
      }
      flows.push_back(f);
    }
  }
  if (auditor) {
    // Checkpoint a few times per simulated second; fine-grained invariants
    // (queue occupancy, PRR budget, rate monotonicity) run per hook anyway.
    auditor->schedule_periodic(TimeDelta::millis(250));
    for (AuditorPtr& a : domain_auditors) a->schedule_periodic(TimeDelta::millis(250));
  }

  // Time-series tracing (optional). The tick is a core event. Sharded, it
  // runs during the core phase while every domain is parked at the window
  // barrier, so reading edge-side sender state is race-free — but that
  // state is the end-of-window state, so a sharded trace may lead the
  // serial one by up to one lookahead. Traces are observational (never
  // serialized or digested).
  ExperimentResult result;
  std::function<void()> trace_tick;
  if (spec.trace_interval > TimeDelta::zero()) {
    trace_tick = [&] {
      QueueTraceSample qs;
      qs.at = sim.now();
      qs.queued_bytes = queue.queued_bytes();
      qs.dropped_packets = queue.stats().dropped_packets;
      result.trace.add_queue_sample(qs);
      auto sample_flow = [&](uint32_t id) {
        if (id >= flows.size()) return;
        const Flow& f = flows[id];
        FlowTraceSample ts;
        ts.at = sim.now();
        ts.cwnd = f.sender->cca().cwnd();
        ts.inflight = f.sender->inflight();
        ts.delivered = f.sender->stats().delivered;
        ts.congestion_events = f.sender->stats().congestion_events;
        ts.rto_events = f.sender->stats().rto_events;
        const DataRate pr = f.sender->cca().pacing_rate();
        ts.pacing_bps = pr.is_infinite() ? 0.0
                                         : static_cast<double>(pr.bits_per_sec());
        ts.in_recovery = f.sender->in_recovery();
        result.trace.add_flow_sample(id, ts);
      };
      if (spec.trace_flows.empty()) {
        for (uint32_t id = 0; id < flows.size(); ++id) sample_flow(id);
      } else {
        for (const uint32_t id : spec.trace_flows) sample_flow(id);
      }
      sim.schedule_fn_in(spec.trace_interval, trace_tick);
    };
    sim.schedule_fn_in(spec.trace_interval, trace_tick);
  }

  // Cooperative budget: installed only when the caller set any limit, so
  // unbudgeted runs keep the exact historical dispatch path. The local
  // copy augments the RSS estimate with the harness's own unbounded
  // buffers (drop log, congestion log), the packets held in the netem
  // lanes and a per-flow state constant; it must outlive every run below,
  // hence function scope.
  SimBudget budget_local;
  if (budget != nullptr && budget->any()) {
    budget_local = *budget;
    auto caller_extra = budget->extra_rss_bytes;
    budget_local.extra_rss_bytes = [&flows, &queue, &topo, &congestion_log,
                                    caller_extra]() {
      // ~4 KB per flow: sender + receiver + scoreboard runs + timers.
      int64_t est = static_cast<int64_t>(flows.size()) * 4096;
      // Packets in the netems' lanes hold no pending event of their own.
      est += topo.netem_held_bytes();
      est += static_cast<int64_t>(queue.drop_log().size()) *
             static_cast<int64_t>(sizeof(DropRecord));
      for (const std::vector<Time>& log : congestion_log) {
        est += static_cast<int64_t>(log.size()) * static_cast<int64_t>(sizeof(Time));
      }
      if (caller_extra) est += caller_extra();
      return est;
    };
    // Placement: the fabric enforces the ceilings at window barriers on
    // counts summed over every simulator.
    if (fabric) {
      fabric->set_budget(&budget_local);
    } else {
      sim.set_budget(&budget_local);
    }
  }

  // Staggered starts over [0, stagger), as in the testbed (0-2 minutes).
  // Placement: the start event runs on the flow's own simulator.
  for (uint32_t id = 0; id < flows.size(); ++id) {
    const double offset =
        rng.next_double() * std::max(spec.scenario.stagger.sec(), 0.0);
    TcpSender* sender = flows[id].sender;
    Simulator& fsim = fabric ? fabric->domain_sim(plan.domain_of(id)) : sim;
    fsim.schedule_fn_at(Time::seconds_f(offset), [sender] { sender->start(); });
  }

  // Open-loop workload: arrivals from t = 0 until the end of the run,
  // driven from a dedicated seed stream (never the master rng, whose draw
  // order the pre-workload goldens pin). Dynamic flow ids continue after
  // the fixed groups. Dynamic flows are always core-resident, wired
  // straight into the topology — the relay only claims ids below
  // plan.sharded_flows — so the arrival schedule is independent of domain
  // interleaving. Declared after `table` (teardown order).
  std::unique_ptr<WorkloadEngine> workload;
  const Time run_end = Time::zero() + spec.scenario.stagger +
                       spec.scenario.warmup + spec.scenario.measure;
  if (spec.workload.enabled()) {
    workload = std::make_unique<WorkloadEngine>(
        sim, topo, table, spec.workload, tcp, spec.receiver,
        net.bottleneck_rate, static_cast<uint32_t>(spec.total_flows()),
        run_end, workload_grace(spec, net), derive_workload_seed(spec.seed));
    workload->begin();
  }

  // Placement: how the run advances, reads the clock, and counts events
  // (sharded: summed over the core and every domain).
  auto run_to = [&](Time t) {
    if (fabric) {
      fabric->run_to(t);
    } else {
      sim.run_until(t);
    }
  };
  auto now = [&] { return fabric ? fabric->now() : sim.now(); };
  auto events = [&] {
    return fabric ? fabric->total_events() : sim.events_processed();
  };
  auto profile = [&] { return fabric ? fabric->aggregate_profile() : sim.profile(); };

  // Warm-up: run, then reset measurement accounting.
  const Time warmup_end =
      Time::zero() + spec.scenario.stagger + spec.scenario.warmup;
  run_to(warmup_end);
  queue.reset_accounting();
  // Steady-state allocation accounting starts here: warm-up covers all
  // one-time growth (scoreboard spills, queue high-water marks), so the
  // measurement-window delta is the per-event steady-state rate.
  const uint64_t warm_events = events();
  const uint64_t warm_allocs = profile().heap_allocs;
  std::vector<FlowCounters> begin;
  begin.reserve(flows.size());
  for (uint32_t i = 0; i < flows.size(); ++i) {
    begin.push_back(snapshot(now(), flows[i], queue, i));
  }

  // Measurement window, optionally with the paper's 1%-delta stop rule.
  bool converged_early = false;
  const Time measure_end = warmup_end + spec.scenario.measure;
  if (spec.convergence_window > TimeDelta::zero()) {
    ConvergenceDetector detector(spec.convergence_window, spec.convergence_tolerance);
    while (now() < measure_end) {
      run_to(std::min(now() + spec.convergence_poll, measure_end));
      // Metric: cumulative average aggregate goodput since warm-up.
      uint64_t in_order = 0;
      for (uint32_t i = 0; i < flows.size(); ++i) {
        in_order += flows[i].receiver->rcv_nxt() - begin[i].rcv_in_order;
      }
      const double elapsed = (now() - warmup_end).sec();
      if (elapsed > 0.0) {
        detector.add_sample(now(), static_cast<double>(in_order) / elapsed);
      }
      if (detector.converged()) {
        converged_early = true;
        break;
      }
    }
  } else {
    run_to(measure_end);
  }

  // Placement: one auditor, or per-domain auditors plus the global sum.
  if (auditor) {
    final_audit(*auditor, sim.now(), fabric ? &*fabric : nullptr,
                domain_auditors);
  }

  // Final snapshots and result assembly.
  result.converged_early = converged_early;
  result.measured_for = now() - warmup_end;
  result.sim_events = events();
  result.sim_profile = profile();
  result.measure_sim_events = result.sim_events - warm_events;
  result.measure_heap_allocs = result.sim_profile.heap_allocs - warm_allocs;
  result.slabs_recycled = table.slabs_recycled();
  result.slab_reuses = table.slab_reuses();
  result.queue = queue.stats();
  result.drop_times.reserve(queue.drop_log().size());
  for (const DropRecord& d : queue.drop_log()) result.drop_times.push_back(d.at);

  result.flows.reserve(flows.size());
  result.flow_group.reserve(flows.size());
  double total_goodput = 0.0;
  for (uint32_t i = 0; i < flows.size(); ++i) {
    const FlowCounters end = snapshot(now(), flows[i], queue, i);
    FlowMeasurement m = measure_flow(i, begin[i], end, kMssBytes);
    total_goodput += m.goodput_bps;
    result.flows.push_back(m);
    result.flow_group.push_back(flows[i].group);
  }
  result.aggregate_goodput_bps = total_goodput;
  result.congestion_log = std::move(congestion_log);
  if (workload) {
    workload->finalize(result.workload_classes);
    const double elapsed = now().sec();
    if (elapsed > 0.0) {
      result.workload_goodput_bps =
          static_cast<double>(workload->goodput_bytes()) * 8.0 / elapsed;
    }
  }
  // Normalize by the payload efficiency (1448 MSS / 1500 wire bytes): a
  // saturated link carries payload at MSS/wire of its line rate.
  const double payload_capacity =
      static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()) *
      static_cast<double>(kMssBytes) / static_cast<double>(kDataPacketBytes);
  result.utilization = total_goodput / payload_capacity;

  result.groups.reserve(spec.groups.size());
  for (size_t gi = 0; gi < spec.groups.size(); ++gi) {
    GroupResult gr;
    gr.cca = spec.groups[gi].cca;
    gr.count = spec.groups[gi].count;
    gr.rtt = spec.groups[gi].rtt;
    const auto goodputs = [&] {
      std::vector<double> v;
      for (size_t i = 0; i < result.flows.size(); ++i) {
        if (result.flow_group[i] == static_cast<int>(gi)) {
          v.push_back(result.flows[i].goodput_bps);
        }
      }
      return v;
    }();
    for (const double g : goodputs) gr.aggregate_goodput_bps += g;
    gr.throughput_share =
        total_goodput > 0.0 ? gr.aggregate_goodput_bps / total_goodput : 0.0;
    gr.jfi = goodputs.empty() ? 1.0 : jain_fairness_index(goodputs);
    result.groups.push_back(gr);
  }

  log_info("experiment done (%d shards): %zu flows, %.2f Gbps aggregate, "
           "util %.3f, %llu events",
           fabric ? plan.shards : 1, flows.size(), total_goodput / 1e9,
           result.utilization, static_cast<unsigned long long>(result.sim_events));
  return result;
}

}  // namespace ccas
