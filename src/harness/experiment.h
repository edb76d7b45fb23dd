// Experiment specification and result types for the paper's measurement
// methodology (Section 3.2): groups of same-CCA, same-RTT flows competing
// over the dumbbell, staggered starts, warm-up exclusion, and per-flow +
// per-group steady-state metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/scenario.h"
#include "src/net/queue.h"
#include "src/sim/profiler.h"
#include "src/stats/fct.h"
#include "src/stats/flow_recorder.h"
#include "src/stats/trace.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/workload/spec.h"

namespace ccas {

struct FlowGroup {
  std::string cca;  // a CCA table name (src/cca/cca.h): "newreno", "cubic", "bbr"
  int count = 1;
  TimeDelta rtt = TimeDelta::millis(20);
};

struct ExperimentSpec {
  Scenario scenario;
  std::vector<FlowGroup> groups;
  uint64_t seed = 1;

  // Inert: every run is serial, whatever this holds. Left over from the
  // retired sharded engine; it stays only because perfbench/ sets it for
  // its core-mix-sh3 workload, whose pinned digest hashes a spec that
  // carries shards = 3 (the spec hash appends it when it is not 1). It
  // goes, with that append, when a benchmark change retires core-mix-sh3.
  int shards = 1;

  TcpSenderConfig tcp;
  TcpReceiverConfig receiver;

  // Open-loop workload riding on top of (or instead of) the fixed groups:
  // session arrivals, heavy-tailed sizes, app-limited pacing models, FCT
  // percentile stats per class (src/workload/). Disabled by default; its
  // fields enter the canonical spec encoding only when enabled, so every
  // pre-workload golden digest and cache key keeps its bytes. Workload
  // flows draw from a dedicated derive_workload_seed stream.
  WorkloadSpec workload;

  // Optional early stop: sample aggregate goodput every `convergence_poll`
  // and stop once it changed <1% over `convergence_window`. Disabled when
  // convergence_window is zero; the run then lasts exactly
  // warmup + measure after the stagger period.
  TimeDelta convergence_window = TimeDelta::zero();
  TimeDelta convergence_poll = TimeDelta::seconds(1);
  double convergence_tolerance = 0.01;

  // Record bottleneck drop timestamps (needed for burstiness; costs RAM).
  bool record_drop_log = true;

  // Record per-flow congestion-event timestamps (the golden-trace harness
  // digests them). Part of the canonical spec encoding: it changes the
  // result content, so it must change the cache key.
  bool record_congestion_log = false;

  // Run the invariant auditor alongside the experiment and throw on any
  // violation. Observational only — it never alters behaviour — so it is
  // deliberately NOT part of the canonical spec encoding (an audited run
  // shares its cache entry with a bare one). Also forced on by CCAS_CHECK=1.
  bool audit = false;

  // Time-series tracing (tcpprobe analog): when trace_interval > 0, sample
  // the flows in trace_flows (empty = every flow) and the bottleneck queue
  // at that interval, including the warm-up period.
  TimeDelta trace_interval = TimeDelta::zero();
  std::vector<uint32_t> trace_flows;

  [[nodiscard]] int total_flows() const {
    int n = 0;
    for (const auto& g : groups) n += g.count;
    return n;
  }
};

struct GroupResult {
  std::string cca;
  int count = 0;
  TimeDelta rtt = TimeDelta::zero();
  double aggregate_goodput_bps = 0.0;
  double throughput_share = 0.0;  // fraction of all groups' goodput
  double jfi = 1.0;               // intra-group Jain fairness index
};

struct ExperimentResult {
  std::vector<FlowMeasurement> flows;  // indexed by flow id
  std::vector<int> flow_group;         // flow id -> group index
  std::vector<GroupResult> groups;
  QueueStats queue;                         // measurement window only
  std::vector<Time> drop_times;             // bottleneck drop log (window)
  double aggregate_goodput_bps = 0.0;
  double utilization = 0.0;  // aggregate goodput / bottleneck rate
  TimeDelta measured_for = TimeDelta::zero();
  bool converged_early = false;
  uint64_t sim_events = 0;
  // Kernel profiler snapshot (events/sec, scheduler and timer counters).
  // Like `trace`, this is per-run observational output: it is not part of
  // the serialized result, so cached cells come back with an empty profile.
  SimProfile sim_profile;
  // Measurement-window deltas (warm-up excluded) of dispatched events and
  // the in-loop heap-allocation counter (SimProfile::heap_allocs). Their
  // ratio is the steady-state allocations-per-event gate in tools/ccas_perf.
  // Observational, like sim_profile: not serialized, empty on cache hits.
  uint64_t measure_sim_events = 0;
  uint64_t measure_heap_allocs = 0;
  // FlowTable slab recycling over the whole run (DESIGN.md §12): workload
  // flows reaped and parked, and arrivals served from a parked slab instead
  // of the heap. Observational, like sim_profile: not serialized, empty on
  // cache hits.
  uint64_t slabs_recycled = 0;
  uint64_t slab_reuses = 0;
  TraceLog trace;  // empty unless trace_interval was set
  // Per-flow congestion-event (fast-recovery entry) timestamps, covering
  // the whole run; empty unless record_congestion_log was set.
  std::vector<std::vector<Time>> congestion_log;
  // Per-class workload FCT summaries (spec order); empty unless the spec's
  // workload block was enabled. Serialized (with workload_goodput_bps) in
  // an appended result-cache block so pre-workload cache entries parse.
  std::vector<WorkloadClassResult> workload_classes;
  // Whole-run average goodput of the workload's dynamic flows (they start
  // mid-run, so the fixed-flow measurement window does not apply).
  double workload_goodput_bps = 0.0;

  // Jain fairness index over an arbitrary subset (by group, or all flows).
  [[nodiscard]] double jfi_all() const;
  [[nodiscard]] double jfi_group(int group_index) const;
  [[nodiscard]] std::vector<double> group_goodputs(int group_index) const;
};

}  // namespace ccas
