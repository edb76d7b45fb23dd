#include "bench/figures.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/inter_cca_suite.h"
#include "bench/mathis_suite.h"
#include "src/cca/bbr.h"
#include "src/models/ware_bbr.h"
#include "src/net/packet.h"
#include "src/net/qdisc/qdisc.h"
#include "src/stats/mathis_fit.h"
#include "src/util/stats.h"

namespace ccas::bench {

Scenario make_scenario(Setting setting, const BenchDurations& d, double* scale_out) {
  Scenario s = Scenario::for_setting(setting);
  s.stagger = TimeDelta::seconds_f(d.stagger_sec);
  s.warmup = TimeDelta::seconds_f(d.warmup_sec);
  s.measure = TimeDelta::seconds_f(d.measure_sec);
  const DumbbellConfig unscaled_net = s.net;
  double scale = s.apply_env_overrides(kDefaultScale);
  if (setting == Setting::kEdgeScale) {
    s.net = unscaled_net;  // duration overrides only
    scale = 1.0;
  }
  if (scale_out != nullptr) *scale_out = scale;
  return s;
}

namespace {

std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

const char* on_off(bool on) { return on ? "on" : "off"; }

bool is_edge(const FigureCell& cell) {
  return cell.spec.scenario.setting == Setting::kEdgeScale;
}

using Metrics = std::function<Row(const FigureCell&, const ExperimentResult&)>;

// The extractor of a row that prints one line per cell: the cell's labels,
// then `metrics` of its result.
auto per_cell(Metrics metrics) {
  return [metrics](const Grid& grid, const Results& results, FigureReport& report) {
    for (size_t i = 0; i < grid.size(); ++i) {
      Row row = grid[i].labels;
      for (std::string& v : metrics(grid[i], *results[i])) row.push_back(std::move(v));
      report.rows.push_back(std::move(row));
    }
  };
}

// A one-group cell in `setting`: `cca` x the paper's `nominal_flows`
// (scaled by REPRO_SCALE at CoreScale) at `rtt_ms`.
FigureCell single_group(Setting setting, const std::string& cca, int nominal_flows,
                        int rtt_ms, const BenchDurations& d, std::string name) {
  FigureCell cell;
  double scale = 1.0;
  cell.spec.scenario = make_scenario(setting, d, &scale);
  cell.spec.groups.push_back(FlowGroup{cca, scaled_flow_count(nominal_flows, scale),
                                       TimeDelta::millis(rtt_ms)});
  cell.spec.seed = 42;
  cell.name = std::move(name);
  return cell;
}

double mean_rtt_ms(const ExperimentResult& r) {
  double sum = 0.0;
  for (const FlowMeasurement& f : r.flows) sum += f.mean_rtt.ms();
  return r.flows.empty() ? 0.0 : sum / static_cast<double>(r.flows.size());
}

// ---- Figure 4: BBR intra-CCA fairness, all-BBR at one RTT -------------------

Grid fig4_grid() {
  Grid cells;
  for (const Setting setting : {Setting::kEdgeScale, Setting::kCoreScale}) {
    const bool edge = setting == Setting::kEdgeScale;
    const std::string setting_name = Scenario::for_setting(setting).name();
    const BenchDurations d = edge ? BenchDurations{2.0, 20.0, 120.0}
                                  : BenchDurations{2.0, 15.0, 45.0};
    for (const int flows : edge ? std::vector<int>{10, 30, 50}
                                : std::vector<int>{1000, 3000, 5000}) {
      for (const int rtt_ms : {20, 100, 200}) {
        FigureCell cell = single_group(
            setting, "bbr", flows, rtt_ms, d,
            setting_name + "/flows=" + std::to_string(flows) + "/rtt=" +
                std::to_string(rtt_ms));
        cell.labels = {setting_name, std::to_string(flows),
                       std::to_string(cell.spec.groups[0].count), std::to_string(rtt_ms)};
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

// ---- Finding 4: loss-based CCAs stay fair at scale -------------------------

Grid finding4_grid() {
  Grid cells;
  for (const char* cca : {"newreno", "cubic"}) {
    for (const int flows : {1000, 3000, 5000}) {
      // The JFI window must cover several AIMD sawtooth periods; the period
      // scales with per-flow cwnd, i.e. inversely with the flow count.
      const BenchDurations d{2.0, 20.0, std::clamp(300.0 * 1000.0 / flows, 100.0, 300.0)};
      FigureCell cell = single_group(Setting::kCoreScale, cca, flows, 20, d,
                                     std::string(cca) + "/flows=" +
                                         std::to_string(flows) + "/rtt=20");
      cell.labels = {cca, std::to_string(flows),
                     std::to_string(cell.spec.groups[0].count), "20"};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// ---- Ablations (DESIGN.md §4): NewReno/BBR at 3000 nominal flows, 20 ms ----

constexpr uint64_t kMinCwnds[] = {2, 4, 8};

std::string mincwnd_cca(uint64_t min_cwnd) {
  return "bbr-mincwnd-" + std::to_string(min_cwnd);
}

Grid mincwnd_grid() {
  // Registered once, before any sweep fans out: registry mutation is not
  // thread-safe, factory lookup is.
  static const bool registered = [] {
    for (const uint64_t min_cwnd : kMinCwnds) {
      CcaRegistry::instance().register_cca(mincwnd_cca(min_cwnd), [min_cwnd](Rng& rng) {
        BbrConfig cfg;
        cfg.min_cwnd = min_cwnd;
        return std::make_unique<Bbr>(cfg, rng);
      });
    }
    return true;
  }();
  (void)registered;
  Grid cells;
  for (const uint64_t min_cwnd : kMinCwnds) {
    FigureCell cell =
        single_group(Setting::kCoreScale, mincwnd_cca(min_cwnd), 3000, 20,
                     {2.0, 15.0, 45.0}, "min_cwnd=" + std::to_string(min_cwnd));
    cell.labels = {std::to_string(min_cwnd)};
    cells.push_back(std::move(cell));
  }
  return cells;
}

Grid buffer_grid() {
  Grid cells;
  for (const int pct : {10, 50, 100}) {
    const double frac = static_cast<double>(pct) / 100.0;
    FigureCell cell = single_group(Setting::kCoreScale, "newreno", 3000, 20,
                                   {2.0, 15.0, 60.0},
                                   "buffer=" + std::to_string(pct) + "pct");
    int64_t& buffer = cell.spec.scenario.net.buffer_bytes;
    buffer = std::max<int64_t>(
        static_cast<int64_t>(static_cast<double>(buffer) * frac), 64 * kDataPacketBytes);
    cell.labels = {fmt(frac, 2), std::to_string(buffer)};
    cells.push_back(std::move(cell));
  }
  return cells;
}

Grid delack_grid() {
  Grid cells;
  for (const bool delack : {true, false}) {
    for (const bool gro : {true, false}) {
      FigureCell cell = single_group(
          Setting::kCoreScale, "newreno", 3000, 20, {2.0, 15.0, 60.0},
          std::string("delack=") + on_off(delack) + "/gro=" + on_off(gro));
      cell.spec.receiver.delayed_ack = delack;
      cell.spec.receiver.gro_enabled = gro;
      cell.labels = {on_off(delack), on_off(gro)};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

Grid sack_grid() {
  Grid cells;
  for (const Setting setting : {Setting::kEdgeScale, Setting::kCoreScale}) {
    const bool edge = setting == Setting::kEdgeScale;
    const std::string setting_name = Scenario::for_setting(setting).name();
    for (const bool sack : {true, false}) {
      FigureCell cell =
          single_group(setting, "newreno", edge ? 30 : 3000, 20,
                       edge ? BenchDurations{2.0, 30.0, 120.0}
                            : BenchDurations{2.0, 15.0, 45.0},
                       setting_name + "/sack=" + on_off(sack));
      cell.spec.tcp.sack_enabled = sack;
      cell.labels = {setting_name, on_off(sack)};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// ---- Extension: the fairness questions per qdisc ---------------------------

QdiscConfig qdisc_by_name(const std::string& name) {
  QdiscConfig qd;
  if (name == "red+ecn") {
    qd.kind = QdiscKind::kRed;
    qd.ecn = true;
  } else {
    qd.kind = qdisc_kind_from_name(name);
  }
  return qd;
}

// Labels: setting ("edge"/"core"), qdisc, flow mix.
Grid aqm_grid() {
  const BenchDurations durations{0.5, 2.0, 8.0};
  const TimeDelta rtt20 = TimeDelta::millis(20);
  const TimeDelta rtt80 = TimeDelta::millis(80);
  Grid cells;
  auto add = [&](Setting setting, const std::string& qdisc, std::vector<FlowGroup> groups,
                 const std::string& flows_desc, const std::string& what) {
    FigureCell cell;
    const std::string setting_name = setting == Setting::kEdgeScale ? "edge" : "core";
    cell.spec.scenario = make_scenario(setting, durations, nullptr);
    cell.spec.scenario.net.qdisc = qdisc_by_name(qdisc);
    cell.spec.groups = std::move(groups);
    cell.spec.seed = 42;
    cell.name = "aqm/" + setting_name + "/" + qdisc + "/" + what;
    cell.labels = {setting_name, qdisc, flows_desc};
    cells.push_back(std::move(cell));
  };
  for (const std::string qdisc : {"drop-tail", "codel", "fq-codel", "pie", "red+ecn"}) {
    // Homogeneous grid: the Figure 4 analog (intra-CCA JFI) per regime.
    for (const Setting setting : {Setting::kEdgeScale, Setting::kCoreScale}) {
      const int flows = setting == Setting::kEdgeScale ? 4 : 8;
      for (const std::string cca : {"newreno", "cubic", "bbr"}) {
        add(setting, qdisc, {FlowGroup{cca, flows, rtt20}},
            cca + ":" + std::to_string(flows), cca);
      }
    }
    // The inter-CCA question (Figures 6/7 analog): cubic vs bbr.
    add(Setting::kEdgeScale, qdisc,
        {FlowGroup{"cubic", 2, rtt20}, FlowGroup{"bbr", 2, rtt20}}, "cubic:2+bbr:2",
        "cubic-vs-bbr");
    // The RTT-unfairness question: same CCA, 20 ms vs 80 ms base RTT.
    add(Setting::kEdgeScale, qdisc,
        {FlowGroup{"cubic", 2, rtt20}, FlowGroup{"cubic", 2, rtt80}}, "cubic:2@20+2@80",
        "rtt-unfair");
  }
  return cells;
}

Row aqm_metrics(const FigureCell& cell, const ExperimentResult& r) {
  uint64_t sent = 0;
  uint64_t drops = 0;
  uint64_t marks = 0;
  for (const FlowMeasurement& f : r.flows) {
    sent += f.segments_sent;
    drops += f.queue_drops;
    marks += f.queue_marks;
  }
  const double denom = sent > 0 ? static_cast<double>(sent) : 1.0;
  const bool mixed = cell.spec.groups.size() > 1;  // report the first group's share
  return {fmt(r.aggregate_goodput_bps / 1e6, 1), fmt(r.utilization, 3),
          fmt(r.jfi_all(), 3), mixed ? fmt_pct(r.groups[0].throughput_share) : "-",
          fmt(static_cast<double>(drops) / denom, 5),
          fmt(static_cast<double>(marks) / denom, 5), fmt(mean_rtt_ms(r), 1)};
}

// ---- Extension: Mathis under exogenous (netem-style) wire loss -------------

// Uncongested regime: at the lowest loss rate, 4 Mathis-limited flows sum
// to ~220 Mbps on a 1 Gbps link, so bottleneck drops stay at zero and the
// configured wire loss is the only `p` in play. (BBR instead saturates the
// link — that mismatch is the point.) Fixed durations: REPRO_* do not apply.
// Labels: cca, wire loss.
Grid netem_grid() {
  Grid cells;
  for (const std::string cca : {"newreno", "cubic", "bbr"}) {
    for (const double loss : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2}) {
      FigureCell cell;
      Scenario& s = cell.spec.scenario;
      s.setting = Setting::kCoreScale;
      s.net.bottleneck_rate = DataRate::gbps(1);
      s.net.buffer_bytes = 25 * 1000 * 1000;
      s.net.impairments.loss = loss;
      s.stagger = TimeDelta::seconds_f(0.5);
      s.warmup = TimeDelta::seconds(2);
      s.measure = TimeDelta::seconds(8);
      cell.spec.groups.push_back(FlowGroup{cca, 4, TimeDelta::millis(20)});
      cell.spec.seed = 42;
      char name[64];
      std::snprintf(name, sizeof(name), "netem/%s/loss=%.0e", cca.c_str(), loss);
      cell.name = name;
      cell.labels = {cca, fmt(loss, 4)};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// Fits one Mathis C per CCA across its whole loss sweep, for each `p`
// interpretation: the test is whether throughput scales as 1/sqrt(p)
// across the sweep, not whether a per-cell constant can absorb it. Each
// cell then prints its median error against its CCA's fit.
void netem_extract(const Grid& grid, const Results& results, FigureReport& report) {
  struct PerCca {
    std::string cca;
    std::vector<MathisObservation> obs_wire;     // p = configured wire loss
    std::vector<MathisObservation> obs_halving;  // p = CWND halving rate
    MathisFit fit_wire;
    MathisFit fit_halving;
  };
  std::vector<PerCca> per_cca;  // in first-seen order
  auto bucket = [&per_cca](const std::string& cca) -> PerCca& {
    for (PerCca& b : per_cca) {
      if (b.cca == cca) return b;
    }
    per_cca.emplace_back().cca = cca;
    return per_cca.back();
  };
  auto observe = [](const FigureCell& cell, const ExperimentResult& r, PerCca& into) {
    for (const FlowMeasurement& f : r.flows) {
      into.obs_wire.push_back(MathisObservation{
          f.goodput_bps, cell.spec.scenario.net.impairments.loss, f.mean_rtt});
      into.obs_halving.push_back(
          MathisObservation{f.goodput_bps, f.cwnd_halving_rate, f.mean_rtt});
    }
  };
  for (size_t i = 0; i < grid.size(); ++i) {
    observe(grid[i], *results[i], bucket(grid[i].spec.groups[0].cca));
  }
  for (PerCca& b : per_cca) {
    b.fit_wire = fit_mathis_constant(b.obs_wire, kMssBytes);
    b.fit_halving = fit_mathis_constant(b.obs_halving, kMssBytes);
  }
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentResult& r = *results[i];
    const PerCca& fits = bucket(grid[i].spec.groups[0].cca);
    PerCca cell;
    observe(grid[i], r, cell);
    uint64_t sent = 0;
    uint64_t retx = 0;
    for (const FlowMeasurement& f : r.flows) {
      sent += f.segments_sent;
      retx += f.retransmits;
    }
    Row row = grid[i].labels;
    for (std::string v :
         {fmt(r.aggregate_goodput_bps / 1e6, 1), fmt(r.utilization, 3),
          sent > 0 ? fmt(static_cast<double>(retx) / static_cast<double>(sent), 5)
                   : "0",
          fmt_pct(median(mathis_relative_errors(cell.obs_wire, fits.fit_wire.c,
                                                kMssBytes))),
          fmt_pct(median(mathis_relative_errors(cell.obs_halving, fits.fit_halving.c,
                                                kMssBytes))),
          std::to_string(r.queue.dropped_packets)}) {
      row.push_back(std::move(v));
    }
    report.rows.push_back(std::move(row));
  }
  for (const PerCca& b : per_cca) {
    char line[128];
    std::snprintf(line, sizeof(line), "fitted C(%s): wire=%.3f halving=%.3f\n",
                  b.cca.c_str(), b.fit_wire.c, b.fit_halving.c);
    report.caption += line;
  }
}

// ---- Extension: userscale open-loop workload -------------------------------

// The short-flow staple: heavy-tailed web objects, mostly a handful of
// segments, bursty app-limited delivery (8-segment objects, 2 ms gaps).
WorkloadClass web_class(const std::string& cca, double weight) {
  WorkloadClass c;
  c.name = "web";
  c.weight = weight;
  c.cca = cca;
  c.rtt = TimeDelta::millis(20);
  c.size.kind = SizeDistKind::kPareto;
  c.size.pareto_alpha = 1.2;
  c.size.min_segments = 2;
  c.size.max_segments = 200;
  c.app = AppModel::kWebObject;
  c.app_burst_segments = 8;
  c.app_gap = TimeDelta::millis(2);
  return c;
}

// A fixed-size class: `segments` per session, `burst` segments per app
// write, `gap` between writes.
WorkloadClass fixed_class(const char* name, const char* cca, double weight, int rtt_ms,
                          uint64_t segments, AppModel app, uint64_t burst, int gap_ms) {
  WorkloadClass c;
  c.name = name;
  c.weight = weight;
  c.cca = cca;
  c.rtt = TimeDelta::millis(rtt_ms);
  c.size.kind = SizeDistKind::kFixed;
  c.size.fixed_segments = c.size.min_segments = c.size.max_segments = segments;
  c.app = app;
  c.app_burst_segments = burst;
  c.app_gap = TimeDelta::millis(gap_ms);
  return c;
}

WorkloadClass rr_class(double weight) {
  return fixed_class("rr", "newreno", weight, 40, 24, AppModel::kRequestResponse, 4, 5);
}

WorkloadClass video_class(double weight) {
  return fixed_class("video", "bbr", weight, 30, 64, AppModel::kVideoChunk, 16, 20);
}

constexpr const char* kHeadlineCell = "core/rate2000-minute";

// All cells are open loop: arrivals do not slow down when the network
// congests, so the highest rung of the ladder deliberately overloads the
// link and the abandoned counts show it. Labels: none (a cell prints one
// row per workload class).
Grid userscale_grid() {
  Grid cells;
  auto add = [&cells](std::string name, Setting setting, const BenchDurations& d,
                      double rate, std::vector<WorkloadClass> classes) {
    FigureCell cell;
    cell.name = std::move(name);
    cell.spec.scenario = make_scenario(setting, d, nullptr);
    cell.spec.seed = 42;
    cell.spec.workload.arrival = ArrivalKind::kPoisson;
    cell.spec.workload.arrivals_per_sec = rate;
    cell.spec.workload.max_concurrent = 8192;
    cell.spec.workload.classes = std::move(classes);
    cells.push_back(std::move(cell));
  };
  // Load ladder: same mix, rising session rate, short window. At the
  // default REPRO_SCALE the core bottleneck is 2 Gbps; 2000 webby
  // sessions/sec offer only ~10% of it, so the tail growth the ladder
  // shows is queueing at the shared bottleneck, not starvation.
  for (const double rate : {500.0, 1000.0, 2000.0}) {
    add("core/rate" + std::to_string(static_cast<int>(rate)), Setting::kCoreScale,
        {0.5, 1.0, 10.0}, rate,
        {web_class("cubic", 0.8), rr_class(0.1), video_class(0.1)});
  }
  // Headline: one full simulated minute at 2000/s — 120k offered sessions.
  // The userscale acceptance gate reads this cell.
  add(kHeadlineCell, Setting::kCoreScale, {0.0, 0.5, 60.0}, 2000.0,
      {web_class("cubic", 0.9), rr_class(0.1)});
  // Per-CCA mix at EdgeScale: the same web workload, one CCA per cell.
  for (const char* cca : {"newreno", "cubic", "bbr"}) {
    add(std::string("edge/web-") + cca, Setting::kEdgeScale, {0.5, 1.0, 15.0}, 300.0,
        {web_class(cca, 1.0)});
  }
  return cells;
}

// One row per workload class. The row FAILS (exit 1) unless >= 100k short
// flows both arrive and complete per simulated minute in the headline cell
// — the userscale acceptance gate, checked against real engine output.
void userscale_extract(const Grid& grid, const Results& results, FigureReport& report) {
  bool headline_ok = false;
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentResult& r = *results[i];
    const Scenario& s = grid[i].spec.scenario;
    // Rates are per simulated minute of the whole horizon the arrivals span.
    const double per_min = 60.0 / (s.stagger + s.warmup + s.measure).sec();
    uint64_t arrivals = 0;
    uint64_t completed = 0;
    for (const WorkloadClassResult& c : r.workload_classes) {
      arrivals += c.arrivals;
      completed += c.completed;
      report.rows.push_back(
          {grid[i].name, c.name, c.cca, fmt(static_cast<double>(c.arrivals) * per_min, 0),
           fmt(static_cast<double>(c.completed) * per_min, 0),
           std::to_string(c.rejected), fmt(c.p50_fct_s * 1e3, 2),
           fmt(c.p99_fct_s * 1e3, 2), fmt(c.p999_fct_s * 1e3, 2),
           fmt(c.mean_slowdown, 2), fmt(r.workload_goodput_bps / 1e6, 1)});
    }
    if (grid[i].name == kHeadlineCell) {
      const double arrived_per_min = static_cast<double>(arrivals) * per_min;
      const double done_per_min = static_cast<double>(completed) * per_min;
      headline_ok = arrived_per_min >= 100000.0 && done_per_min >= 100000.0;
      std::printf(
          "\nuserscale headline (%s): %.0f arrivals/min, %.0f completions/min "
          "(gate: >= 100000 of each): %s\n",
          kHeadlineCell, arrived_per_min, done_per_min, headline_ok ? "OK" : "FAIL");
    }
  }
  if (!headline_ok) {
    report.failure = std::string(kHeadlineCell) +
                     " fell below 100k short flows arriving+completing per "
                     "simulated minute";
  }
}

// ---- The table --------------------------------------------------------------

std::vector<Figure> make_table() {
  std::vector<Figure> t;
  // Table 1: the empirically derived Mathis constant C for NewReno, using
  // p = packet loss rate vs p = CWND halving rate. Paper: the loss-rate C
  // is flow-count- and setting-dependent (1.78 edge -> 3.2-4.0 core); the
  // halving-rate C is consistent (1.47 edge, 1.34-1.36 core).
  t.push_back({"table1", "bench_table1_mathis_constant", mathis_grid,
               {"setting", "flows(paper)", "flows(run)", "C(packet loss)",
                "C(cwnd halving)", "util"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 const MathisCell m = analyze_mathis_cell(r);
                 return {fmt(m.fit_loss.c), fmt(m.fit_halving.c), fmt_pct(r.utilization)};
               }),
               "Table 1 analog - Mathis constant C by p-interpretation.\n"
               "Paper: C(loss) varies 1.78 (edge) -> 3.2-4.0 (core, "
               "flow-count-dependent);\n"
               "       C(halving) stays ~1.47 (edge) / 1.34-1.36 (core).\n"
               "Expected shape: C(halving) consistent across settings & flow counts;\n"
               "C(loss) inflated and drifting at CoreScale."});
  // Figure 2: median Mathis prediction error per p-interpretation. Paper:
  // <= 10% with the CWND halving rate at CoreScale, 45-55% with the packet
  // loss rate; both < 10% at EdgeScale.
  t.push_back({"fig2", "bench_fig2_mathis_error", mathis_grid,
               {"setting", "flows(paper)", "flows(run)", "err(packet loss)",
                "err(cwnd halving)", "flows fit"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 const MathisCell m = analyze_mathis_cell(r);
                 return {fmt_pct(m.fit_loss.median_error),
                         fmt_pct(m.fit_halving.median_error),
                         std::to_string(m.fit_halving.flows_used)};
               }),
               "Figure 2 analog - median Mathis prediction error by p-interpretation.\n"
               "Paper: CoreScale err(halving) <= 10%, err(loss) 45-55%; EdgeScale both < "
               "10%.\n"
               "Expected shape: halving-rate error small everywhere; loss-rate error\n"
               "grows at CoreScale."});
  // Figure 3: packet losses per congestion event (CWND halving). Paper:
  // ~1.7 flat at EdgeScale; 6-9 and flow-count-dependent at CoreScale —
  // losses arrive in bursts that each trigger only one halving, which is
  // why the loss-rate Mathis fit breaks at scale.
  t.push_back({"fig3", "bench_fig3_loss_halving_ratio", mathis_grid,
               {"setting", "flows(paper)", "flows(run)", "loss/halving ratio", "paper"},
               per_cell([](const FigureCell& c, const ExperimentResult& r) -> Row {
                 return {fmt(analyze_mathis_cell(r).loss_to_halving_ratio, 2),
                         is_edge(c) ? "~1.7" : "6-9"};
               }),
               "Figure 3 analog - packet-loss to CWND-halving ratio.\n"
               "Paper: EdgeScale ~1.7 flat; CoreScale 6-9, flow-count-dependent.\n"
               "Expected shape: ratio larger at CoreScale than EdgeScale."});
  // Finding 3 corroboration (no figure in the paper): Goh-Barabasi
  // burstiness of the bottleneck drop process, median ~0.2 at EdgeScale
  // and ~0.35 at CoreScale.
  t.push_back({"burstiness", "bench_burstiness", mathis_grid,
               {"setting", "flows(paper)", "flows(run)", "burstiness B", "paper"},
               per_cell([](const FigureCell& c, const ExperimentResult& r) -> Row {
                 return {fmt(analyze_mathis_cell(r).drop_burstiness, 3),
                         is_edge(c) ? "~0.2" : "~0.35"};
               }),
               "Finding 3 corroboration - Goh-Barabasi burstiness of bottleneck drops\n"
               "(-1 periodic, 0 Poisson, ->1 bursty).\n"
               "Paper: ~0.2 EdgeScale, ~0.35 CoreScale.\n"
               "Expected shape: drops burstier at CoreScale than EdgeScale."});
  // Finding 4 (no figure in the paper): NewReno and Cubic stay intra-CCA
  // fair at CoreScale, JFI > 0.99 over a long run. The window is sized to
  // >= 2 sawtooth periods of the smallest flow count.
  t.push_back({"finding4", "bench_finding4_loss_based_jfi", finding4_grid,
               {"cca", "flows(paper)", "flows(run)", "rtt(ms)", "JFI", "util", "paper"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt(r.jfi_all()), fmt_pct(r.utilization), "> 0.99"};
               }),
               "Finding 4 - NewReno & Cubic intra-CCA fairness at CoreScale.\n"
               "Paper: JFI > 0.99 (time-averaged over a long run).\n"
               "Expected shape: high JFI at every flow count for both CCAs."});
  // Figure 4: BBR intra-CCA fairness at CoreScale (4a) and EdgeScale (4b).
  // Paper: fair at low flow counts (past work: JFI 0.99), unfair at scale —
  // JFI as low as 0.4 at CoreScale, ~0.7 beyond 10 flows at EdgeScale.
  t.push_back({"fig4", "bench_fig4_bbr_intra_jfi", fig4_grid,
               {"setting", "flows(paper)", "flows(run)", "rtt(ms)", "JFI", "util",
                "paper"},
               per_cell([](const FigureCell& c, const ExperimentResult& r) -> Row {
                 // EdgeScale never scales, so the run count is the paper's.
                 const char* paper = !is_edge(c)                   ? "0.4-0.8"
                                     : c.spec.groups[0].count > 10 ? "~0.7-0.99"
                                                                   : "~0.99";
                 return {fmt(r.jfi_all()), fmt_pct(r.utilization), paper};
               }),
               "Figure 4 analog - BBR intra-CCA Jain fairness index.\n"
               "Paper: JFI down to 0.4 at CoreScale (20/100 ms), ~0.7 beyond 10\n"
               "flows at EdgeScale; past work (few flows) measured 0.99.\n"
               "Expected shape: JFI degrades from EdgeScale to CoreScale."});
  // Figure 5: Cubic vs an equal number of NewReno flows. Paper: Cubic
  // takes 70-80% at every flow count and RTT.
  t.push_back({"fig5", "bench_fig5_cubic_vs_reno",
               [] {
                 return inter_cca_grid("cubic", "newreno", false, {2.0, 20.0, 60.0});
               },
               {"flows/side(paper)", "flows/side(run)", "rtt(ms)", "cubic share",
                "cubic JFI", "reno JFI", "paper"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt_pct(r.groups[0].throughput_share), fmt(r.groups[0].jfi),
                         fmt(r.groups[1].jfi), "70-80%"};
               }),
               "Figure 5 analog - Cubic's share vs an equal number of NewReno\n"
               "flows at CoreScale. Paper: 70-80% at every flow count and RTT.\n"
               "Expected shape: Cubic wins a roughly constant super-half share."});
  // Figure 6: one BBR flow vs thousands of NewReno flows, next to the Ware
  // et al. model. Paper: ~40% of the link irrespective of the NewReno
  // count (validating Ware et al. at scale).
  t.push_back({"fig6", "bench_fig6_one_bbr_vs_reno",
               [] { return inter_cca_grid("bbr", "newreno", true, {2.0, 30.0, 60.0}); },
               {"reno flows(paper)", "reno flows(run)", "rtt(ms)", "bbr share",
                "ware model", "paper"},
               per_cell([](const FigureCell& c, const ExperimentResult& r) -> Row {
                 WareBbrParams p;
                 p.link = c.spec.scenario.net.bottleneck_rate;
                 p.rtprop = c.spec.groups[0].rtt;
                 p.buffer_bytes = c.spec.scenario.net.buffer_bytes;
                 p.num_bbr = 1;
                 p.num_loss_based = c.spec.groups[1].count;
                 return {fmt_pct(r.groups[0].throughput_share),
                         fmt_pct(WareBbrModel(p).predict().bbr_fraction), "~40%"};
               }),
               "Figure 6 analog - one BBR flow vs thousands of NewReno flows.\n"
               "Paper: BBR holds ~40% of the link at every flow count (Ware\n"
               "et al.'s in-flight-cap model, validated at scale).\n"
               "Expected shape: a large BBR share, flat in the flow count."});
  // Figure 7: one BBR flow vs thousands of Cubic flows. Paper: ~40%, as
  // for NewReno.
  t.push_back({"fig7", "bench_fig7_one_bbr_vs_cubic",
               [] { return inter_cca_grid("bbr", "cubic", true, {2.0, 30.0, 60.0}); },
               {"cubic flows(paper)", "cubic flows(run)", "rtt(ms)", "bbr share",
                "paper"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt_pct(r.groups[0].throughput_share), "~40%"};
               }),
               "Figure 7 analog - one BBR flow vs thousands of Cubic flows.\n"
               "Paper: BBR holds ~40% of the link at every flow count.\n"
               "Expected shape: a large BBR share, flat in the flow count."});
  // Figure 8: BBR vs an equal number of NewReno (8a) or Cubic (8b) flows.
  // Paper: up to 99.9% of total throughput; EXPERIMENTS.md says where the
  // simulator lands and why (BBRv1's bandwidth-estimate dynamics through
  // synchronized PROBE_RTT episodes).
  t.push_back({"fig8", "bench_fig8_bbr_equal_count",
               [] {
                 Grid cells;
                 for (const std::string other : {"newreno", "cubic"}) {
                   for (FigureCell& c :
                        inter_cca_grid("bbr", other, false, {2.0, 20.0, 45.0})) {
                     c.labels.insert(c.labels.begin(), other);
                     cells.push_back(std::move(c));
                   }
                 }
                 return cells;
               },
               {"vs", "flows/side(paper)", "flows/side(run)", "rtt(ms)", "bbr share",
                "bbr JFI", "paper"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt_pct(r.groups[0].throughput_share), fmt(r.groups[0].jfi),
                         "95-99.9%"};
               }),
               "Figure 8 analog - BBR vs an equal number of NewReno/Cubic flows\n"
               "at CoreScale. Paper: BBR takes ~99.9% of total throughput.\n"
               "Expected shape: BBR well above its 50% fair share."});
  // Ablation 1: receiver ACK policy. Hypothesis: ACK aggregation makes
  // senders burstier, so losses cluster per flow and the packet-loss rate
  // diverges further from the CWND-halving rate at CoreScale.
  t.push_back({"ablation_delack", "bench_ablation_delack", delack_grid,
               {"delayed ack", "gro", "loss/halving ratio", "C(loss)", "C(halving)",
                "util"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 const MathisCell m = analyze_mathis_cell(r);
                 return {fmt(m.loss_to_halving_ratio, 2), fmt(m.fit_loss.c),
                         fmt(m.fit_halving.c), fmt_pct(r.utilization)};
               }),
               "Ablation - receiver ACK policy (delayed ACK x GRO) vs the\n"
               "loss-to-halving ratio at CoreScale (NewReno, 3000 nominal\n"
               "flows, 20 ms). Expected: aggregation raises the ratio."});
  // Ablation 2: bottleneck buffer size, 0.1/0.5/1.0 x the paper's 375 MB.
  // Appenzeller et al. (whose desynchronization result the paper leans on)
  // showed that at high flow counts much smaller buffers still reach ~full
  // utilization.
  t.push_back({"ablation_buffer", "bench_ablation_buffer", buffer_grid,
               {"buffer (xBDP200ms)", "buffer bytes", "util", "JFI", "mean rtt(ms)",
                "drop burstiness"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt_pct(r.utilization), fmt(r.jfi_all()), fmt(mean_rtt_ms(r), 1),
                         fmt(analyze_mathis_cell(r).drop_burstiness, 3)};
               }),
               "Ablation - bottleneck buffer size at CoreScale (NewReno,\n"
               "3000 nominal flows, 20 ms). Expected: near-full utilization\n"
               "even at 0.1x the paper's buffer (Appenzeller desync), with\n"
               "lower queueing RTT."});
  // Ablation 3: BBR's 4-packet minimum window. At CoreScale the fair-share
  // BDP is only a few packets, so the floor is a candidate cause of BBR's
  // intra-CCA unfairness (paper Finding 5): flows pinned at the floor
  // can't signal, while others absorb the spare capacity.
  t.push_back({"ablation_bbr_mincwnd", "bench_ablation_bbr_mincwnd", mincwnd_grid,
               {"bbr min_cwnd", "JFI", "util", "paper(min_cwnd=4)"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 return {fmt(r.jfi_all()), fmt_pct(r.utilization), "JFI ~0.4"};
               }),
               "Ablation - BBR minimum cwnd vs intra-CCA fairness at\n"
               "CoreScale (all-BBR, 3000 nominal flows, 20 ms). The paper's\n"
               "BBR (min_cwnd=4) measured JFI as low as 0.4 at scale."});
  // Ablation 4: SACK vs non-SACK loss recovery — Mathis et al.'s caveat
  // that the halving-rate form of the model assumes SACK. Without it,
  // recovery leans on dupack counting and NewReno partial ACKs.
  t.push_back({"ablation_sack", "bench_ablation_sack", sack_grid,
               {"setting", "sack", "util", "JFI", "RTOs/flow", "retransmits/flow"},
               per_cell([](const FigureCell&, const ExperimentResult& r) -> Row {
                 double rtos = 0.0;
                 double retx = 0.0;
                 for (const FlowMeasurement& f : r.flows) {
                   rtos += static_cast<double>(f.rto_events);
                   retx += static_cast<double>(f.retransmits);
                 }
                 const auto n = static_cast<double>(r.flows.size());
                 return {fmt_pct(r.utilization), fmt(r.jfi_all()), fmt(rtos / n, 2),
                         fmt(retx / n, 1)};
               }),
               "Ablation - SACK vs non-SACK NewReno loss recovery.\n"
               "Expected: without SACK, more RTOs under burst loss and\n"
               "somewhat lower utilization/fairness, especially at scale."});
  // Extension: Figure 2 under exogenous i.i.d. wire loss (the netem axis
  // the testbed reached via tc). Expected: newreno tracks
  // MSS*C/(RTT*sqrt(p)); cubic's ~p^-0.75 scaling (RFC 8312) leaves a
  // systematic residual; BBR is loss-agnostic below a few percent.
  t.push_back({"netem_grid", "bench_netem_grid", netem_grid,
               {"cca", "wire loss", "goodput_mbps", "util", "retx_rate", "err(p=wire)",
                "err(p=halving)", "queue_drops"},
               netem_extract,
               "Figure 2 analog with exogenous (netem-style) i.i.d. wire loss.\n"
               "Mathis C fitted per CCA across the whole loss sweep.\n"
               "Expected: newreno tracks 1/sqrt(p); cubic scales ~p^-0.75 (RFC 8312) "
               "so a\n"
               "sqrt fit shows systematic error; BBR is loss-agnostic and saturates the "
               "link.\n"});
  // Extension: the fairness questions under {drop-tail, codel, fq-codel,
  // pie, red+ecn}. Expected: the drop-tail findings mostly survive the
  // single-FIFO AQMs; fq-codel's per-flow DRR inverts the RTT-unfairness
  // and cubic-vs-bbr outcomes by construction. EXPERIMENTS.md §aqm_grid
  // holds the observed survive/invert table.
  t.push_back({"aqm_grid", "bench_aqm_grid", aqm_grid,
               {"setting", "qdisc", "flows", "goodput_mbps", "util", "JFI", "g0_share",
                "loss_rate", "mark_rate", "mean_rtt_ms"},
               per_cell(aqm_metrics),
               "Paper fairness questions re-asked per qdisc (Figures 4/6/7 analogs).\n"
               "JFI over all flows; g0_share = first group's throughput share in the\n"
               "mixed cells (cubic in cubic-vs-bbr, short-RTT pair in rtt-unfair).\n"
               "loss/mark rates are bottleneck drops/CE marks per segment sent.\n"
               "See EXPERIMENTS.md for the per-qdisc survive/invert table.\n"});
  // Extension: open-loop session arrivals at rates the paper's fixed-
  // population methodology never reaches — a load ladder, the 100k/min
  // headline minute, and a per-CCA web mix at EdgeScale.
  t.push_back({"userscale", "bench_userscale", userscale_grid,
               {"cell", "class", "cca", "arrived_per_min", "done_per_min", "rejected",
                "p50_ms", "p99_ms", "p999_ms", "slowdown", "goodput_mbps"},
               userscale_extract,
               "Open-loop userscale workload: per-class FCT percentiles (GK sketch)\n"
               "and mean slowdown vs the unloaded ideal. Rates are normalized per\n"
               "simulated minute of the whole run horizon. The core ladder shares a\n"
               "class mix (80% web / 10% rr / 10% video); edge/web-* isolates one\n"
               "CCA per cell for the EXPERIMENTS.md per-CCA P99 table.\n"});
  return t;
}

}  // namespace

const std::vector<Figure>& figure_table() {
  static const std::vector<Figure> table = make_table();
  return table;
}

}  // namespace ccas::bench
