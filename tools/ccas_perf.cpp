// ccas_perf — perf-regression microbenchmark over pinned experiment cells.
//
// Runs a fixed grid of cells through the harness, reports events/sec from
// the kernel profiler, and writes the numbers as JSON (BENCH_events.json).
// With --baseline it compares against a previous JSON and fails (exit 2)
// when any cell regresses by more than --max-regress (default 25%) —
// that is the CI perf-smoke gate.
//
//   ccas_perf                                     # full grid, print JSON
//   ccas_perf --out=BENCH_events.json
//   ccas_perf --cells=smoke-edge,smoke-core --baseline=BENCH_events.json
//   ccas_perf --repeat=3 --max-regress=0.25
//
// The full cells (edge50, core1000) match the README's measured numbers;
// the smoke-* cells are small enough for CI (a few seconds each).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"

namespace {

using namespace ccas;

struct BenchCell {
  std::string name;
  ExperimentSpec spec;
};

FlowGroup group(const char* cca, int count, int rtt_ms) {
  FlowGroup g;
  g.cca = cca;
  g.count = count;
  g.rtt = TimeDelta::millis(rtt_ms);
  return g;
}

ExperimentSpec pinned_spec(Scenario scenario, std::vector<FlowGroup> groups,
                           double stagger_s, double warmup_s, double measure_s) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.scenario.stagger = TimeDelta::seconds_f(stagger_s);
  spec.scenario.warmup = TimeDelta::seconds_f(warmup_s);
  spec.scenario.measure = TimeDelta::seconds_f(measure_s);
  spec.groups = std::move(groups);
  spec.seed = 1;
  spec.record_drop_log = false;  // benchmark the simulator, not the logs
  return spec;
}

// The pinned grid. Changing any cell invalidates committed baselines, so
// treat these as append-only.
std::vector<BenchCell> all_cells() {
  std::vector<BenchCell> cells;
  cells.push_back({"edge50", pinned_spec(Scenario::edge_scale(),
                                         {group("cubic", 25, 20), group("newreno", 25, 80)},
                                         1.0, 2.0, 20.0)});
  cells.push_back({"core1000",
                   pinned_spec(Scenario::core_scale(),
                               {group("newreno", 600, 20), group("cubic", 400, 80)},
                               1.0, 2.0, 5.0)});
  // CI-sized cells.
  cells.push_back({"smoke-edge", pinned_spec(Scenario::edge_scale(),
                                             {group("cubic", 10, 20), group("newreno", 10, 80)},
                                             0.5, 1.0, 5.0)});
  {
    Scenario sc = Scenario::core_scale();
    sc.net.bottleneck_rate = DataRate::bps_f(2e9);
    sc.net.buffer_bytes = 75'000'000;  // ~1 BDP at 2 Gbps, 300 ms
    cells.push_back({"smoke-core", pinned_spec(sc,
                                               {group("newreno", 120, 20), group("cubic", 80, 80)},
                                               0.5, 1.0, 3.0)});
  }
  // Scale bands: the paper's full CoreScale population and a 4x stress
  // band, which pin the flow-count scaling cliff (DESIGN.md §12).
  cells.push_back({"core5000",
                   pinned_spec(Scenario::core_scale(),
                               {group("newreno", 3000, 20), group("cubic", 2000, 80)},
                               0.5, 1.0, 2.0)});
  cells.push_back({"core20000",
                   pinned_spec(Scenario::core_scale(),
                               {group("newreno", 12000, 20), group("cubic", 8000, 80)},
                               0.5, 1.0, 1.0)});
  // Userscale workload churn (src/workload/): 2000 open-loop short-flow
  // sessions/sec — 100k+ per simulated minute — pounding the dynamic
  // flow-table arena, the reaper, and the FCT sketches instead of a fixed
  // population. The alloc gate matters most here: every session creates
  // and destroys a flow, so any per-churn allocation multiplies by the
  // arrival rate rather than the flow count.
  {
    WorkloadClass web;
    web.name = "web";
    web.weight = 1.0;
    web.cca = "cubic";
    web.rtt = TimeDelta::millis(20);
    web.size.kind = SizeDistKind::kPareto;
    web.size.pareto_alpha = 1.2;
    web.size.min_segments = 2;
    web.size.max_segments = 200;
    web.app = AppModel::kWebObject;
    web.app_burst_segments = 8;
    web.app_gap = TimeDelta::millis(2);
    ExperimentSpec spec = pinned_spec(Scenario::core_scale(), {}, 0.0, 0.5, 30.0);
    spec.workload.arrival = ArrivalKind::kPoisson;
    spec.workload.arrivals_per_sec = 2000.0;
    spec.workload.max_concurrent = 8192;
    spec.workload.classes = {web};
    cells.push_back({"userscale2000", spec});
    // CI-sized twin: same churn rate, short window.
    spec.scenario.measure = TimeDelta::seconds_f(5.0);
    cells.push_back({"smoke-userscale", spec});
  }
  return cells;
}

struct CellResult {
  std::string name;
  int flows = 0;
  uint64_t sim_events = 0;
  double wall_sec = 0.0;
  double sim_sec = 0.0;
  double events_per_sec = 0.0;
  // Heap allocations per dispatched event inside the measurement window
  // (warm-up excluded). Steady state is ~0: any sustained per-event
  // allocation is a hot-path regression the events/sec number might absorb
  // on a fast machine — the --alloc-gate catches it directly.
  double allocs_per_event = 0.0;
  // Largest pending-event set of the run (SimProfile::pending_max): what
  // the timing wheel actually holds, observational and ungated.
  uint64_t pending_max = 0;
};

// events/sec at the smallest flow count divided by events/sec at the
// largest, from one grid run: the flow-count scaling cliff in one number
// (1.0 = flat; the paper-scale gap this PR attacks was ~2.5x).
std::optional<double> degradation_ratio(const std::vector<CellResult>& results) {
  const CellResult* lo = nullptr;
  const CellResult* hi = nullptr;
  for (const CellResult& r : results) {
    if (lo == nullptr || r.flows < lo->flows) lo = &r;
    if (hi == nullptr || r.flows > hi->flows) hi = &r;
  }
  if (lo == nullptr || hi == nullptr || lo == hi || hi->events_per_sec <= 0.0) {
    return std::nullopt;
  }
  return lo->events_per_sec / hi->events_per_sec;
}

std::string to_json(const std::vector<CellResult>& results) {
  std::ostringstream out;
  out << "{\n  \"ccas_perf\": 1,\n";
  if (const auto ratio = degradation_ratio(results)) {
    char line[64];
    std::snprintf(line, sizeof(line), "  \"degradation_ratio\": %.3f,\n",
                  *ratio);
    out << line;
  }
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    char line[384];
    // wall_sec at full microsecond precision: the smoke cells finish in
    // tens of milliseconds, where three decimals used to round away most
    // of the measurement (and any hand math against events_per_sec).
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"flows\": %d, "
                  "\"sim_events\": %llu, "
                  "\"wall_sec\": %.6f, \"sim_sec\": %.3f, \"events_per_sec\": %.0f, "
                  "\"allocs_per_event\": %.6f, \"pending_max\": %llu}",
                  r.name.c_str(), r.flows,
                  static_cast<unsigned long long>(r.sim_events), r.wall_sec,
                  r.sim_sec, r.events_per_sec, r.allocs_per_event,
                  static_cast<unsigned long long>(r.pending_max));
    out << line << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// Minimal extraction from a previous ccas_perf JSON: finds the cell object
// by name and reads its events_per_sec. Only needs to parse what this tool
// itself writes.
std::optional<double> baseline_events_per_sec(const std::string& json,
                                              const std::string& cell) {
  const std::string needle = "\"name\": \"" + cell + "\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::string key = "\"events_per_sec\":";
  const size_t k = json.find(key, at);
  if (k == std::string::npos) return std::nullopt;
  const size_t obj_end = json.find('}', at);
  if (obj_end != std::string::npos && k > obj_end) return std::nullopt;
  return std::strtod(json.c_str() + k + key.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> only;
  std::string out_path;
  std::string baseline_path;
  double max_regress = 0.25;
  double alloc_gate = -1.0;  // < 0 = off
  int repeat = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--help" || key == "-h") {
      std::puts(
          "usage: ccas_perf [--cells=a,b] [--out=file.json] [--repeat=n]\n"
          "                 [--baseline=file.json] [--max-regress=frac]\n"
          "                 [--alloc-gate=allocs_per_event]\n"
          "cells: edge50 core1000 smoke-edge smoke-core core5000\n"
          "       core20000 userscale2000 smoke-userscale (default: all)\n"
          "exit 2 if any cell's events/sec falls more than max-regress\n"
          "(default 0.25) below the baseline, or if any cell's measured\n"
          "heap allocations per event exceed the --alloc-gate threshold\n"
          "(steady state is ~0; try 0.001)");
      return 0;
    } else if (key == "--cells") {
      size_t start = 0;
      while (start <= value.size()) {
        const size_t pos = value.find(',', start);
        only.push_back(value.substr(start, pos - start));
        if (pos == std::string::npos) break;
        start = pos + 1;
      }
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--baseline") {
      baseline_path = value;
    } else if (key == "--max-regress") {
      max_regress = std::strtod(value.c_str(), nullptr);
    } else if (key == "--alloc-gate") {
      alloc_gate = std::strtod(value.c_str(), nullptr);
    } else if (key == "--repeat") {
      repeat = std::atoi(value.c_str());
      if (repeat < 1) repeat = 1;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", key.c_str());
      return 1;
    }
  }

  std::string baseline_json;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    baseline_json = ss.str();
  }

  try {
    std::vector<CellResult> results;
    bool regressed = false;
    for (const BenchCell& cell : all_cells()) {
      if (!only.empty() &&
          std::find(only.begin(), only.end(), cell.name) == only.end()) {
        continue;
      }
      CellResult best;
      for (int rep = 0; rep < repeat; ++rep) {
        const ExperimentResult res = run_experiment(cell.spec);
        CellResult r;
        r.name = cell.name;
        r.flows = cell.spec.total_flows();
        r.sim_events = res.sim_events;
        r.wall_sec = res.sim_profile.wall_seconds;
        r.sim_sec = res.sim_profile.sim_seconds;
        r.events_per_sec = res.sim_profile.events_per_wall_sec();
        r.pending_max = res.sim_profile.pending_max;
        if (res.measure_sim_events > 0) {
          r.allocs_per_event = static_cast<double>(res.measure_heap_allocs) /
                               static_cast<double>(res.measure_sim_events);
        }
        if (rep == 0 || r.events_per_sec > best.events_per_sec) best = r;
      }
      std::printf("%-13s %6d flows  %12llu events  %8.3fs wall  %11.0f events/sec  %.6f allocs/event  %8llu pending max\n",
                  best.name.c_str(), best.flows,
                  static_cast<unsigned long long>(best.sim_events), best.wall_sec,
                  best.events_per_sec, best.allocs_per_event,
                  static_cast<unsigned long long>(best.pending_max));
      if (alloc_gate >= 0.0 && best.allocs_per_event > alloc_gate) {
        std::fprintf(stderr,
                     "ALLOC REGRESSION: %s at %.6f heap allocs/event exceeds "
                     "the %.6f gate — something allocates on the hot path\n",
                     best.name.c_str(), best.allocs_per_event, alloc_gate);
        regressed = true;
      }
      if (!baseline_json.empty()) {
        if (const auto base = baseline_events_per_sec(baseline_json, best.name)) {
          const double ratio = *base > 0.0 ? best.events_per_sec / *base : 1.0;
          std::printf("%-12s        vs baseline %11.0f events/sec  (%+.1f%%)\n", "",
                      *base, (ratio - 1.0) * 100.0);
          if (ratio < 1.0 - max_regress) {
            std::fprintf(stderr,
                         "REGRESSION: %s at %.0f events/sec is %.1f%% below "
                         "baseline %.0f (allowed %.0f%%)\n",
                         best.name.c_str(), best.events_per_sec,
                         (1.0 - ratio) * 100.0, *base, max_regress * 100.0);
            regressed = true;
          }
        } else {
          std::printf("%-12s        (no baseline entry)\n", "");
        }
      }
      results.push_back(best);
    }

    if (results.empty()) {
      std::fprintf(stderr, "no cells selected\n");
      return 1;
    }
    if (const auto ratio = degradation_ratio(results)) {
      std::printf("degradation_ratio (events/sec smallest / largest cell): %.3f\n",
                  *ratio);
    }
    const std::string json = to_json(results);
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << json;
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fputs(json.c_str(), stdout);
    }
    return regressed ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
