// Tier-2 auditor stress grid: one cell of every row of the figure table
// (bench/figures.cc), built at REPRO_SCALE=0.05 with durations compressed
// far below the figure defaults and the invariant auditor enabled.
// run_experiment throws on any violation, so completing the grid IS the
// assertion; each row's extractor then runs on its cell's result. A new
// row is audited with no change here, and the grid is checked to still
// cover the configuration space the figures exercise (both settings, every
// CCA mix, SACK off, delayed-ACK off, undersized buffers, the drop log).
//
// Gated behind CCAS_CHECK so plain `ctest` (tier 1) stays fast; the ASan
// CI job runs it with CCAS_CHECK=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "src/check/audit.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"
#include "src/sweep/spec_hash.h"

namespace ccas::check {
namespace {

using bench::Figure;
using bench::FigureCell;

constexpr double kScale = 0.05;

struct StressCell {
  const Figure* figure = nullptr;  // null for the extra cell
  FigureCell cell;
};

// Rows audit their first cell unless named here: the cell that adds a
// feature no other row's first cell has.
const std::map<std::string, std::string>& chosen_cells() {
  static const std::map<std::string, std::string> chosen{
      {"ablation_delack", "delack=off/gro=off"},
      {"ablation_sack", "EdgeScale/sack=off"},
      {"aqm_grid", "aqm/edge/red+ecn/rtt-unfair"},  // ECN marks, mixed RTTs
  };
  return chosen;
}

void compress(ExperimentSpec& spec) {
  spec.scenario.stagger = TimeDelta::millis(200);
  spec.scenario.warmup = TimeDelta::millis(500);
  spec.scenario.measure = TimeDelta::seconds(1);
  spec.audit = true;
}

std::vector<StressCell> stress_grid() {
  ::setenv("REPRO_SCALE", std::to_string(kScale).c_str(), 1);
  for (const char* v : {"REPRO_WARMUP_SEC", "REPRO_MEASURE_SEC", "REPRO_STAGGER_SEC"}) {
    ::unsetenv(v);
  }
  std::vector<StressCell> grid;
  for (const Figure& figure : bench::figure_table()) {
    const bench::Grid cells = figure.grid();
    const auto chosen = chosen_cells().find(figure.id);
    auto pick = cells.begin();
    if (chosen != chosen_cells().end()) {
      pick = std::find_if(cells.begin(), cells.end(), [&](const FigureCell& c) {
        return c.name == chosen->second;
      });
      if (pick == cells.end()) {
        ADD_FAILURE() << figure.id << " has no cell " << chosen->second;
        continue;
      }
    }
    grid.push_back({&figure, *pick});
    compress(grid.back().cell.spec);
  }
  ::unsetenv("REPRO_SCALE");
  // BBR flows at two RTTs on one bottleneck, which no figure row runs.
  StressCell extra;
  extra.cell.name = "bbr-mixed-rtt";
  extra.cell.spec.scenario = Scenario::edge_scale();
  extra.cell.spec.groups = {{"bbr", 5, TimeDelta::millis(20)},
                            {"bbr", 5, TimeDelta::millis(100)}};
  extra.cell.spec.seed = 42;
  compress(extra.cell.spec);
  grid.push_back(extra);
  return grid;
}

TEST(check_stress, FigureGridCoversTheFiguresFeatures) {
  std::set<Setting> settings;
  std::set<std::set<std::string>> mixes;
  bool sack_off = false;
  bool delack_off = false;
  bool small_buffer = false;
  bool drop_log = false;
  const int64_t core_buffer =
      static_cast<int64_t>(static_cast<double>(Scenario::core_scale().net.buffer_bytes) *
                           kScale);
  for (const StressCell& s : stress_grid()) {
    const ExperimentSpec& spec = s.cell.spec;
    settings.insert(spec.scenario.setting);
    std::set<std::string> mix;
    for (const FlowGroup& g : spec.groups) mix.insert(g.cca);
    mixes.insert(mix);
    sack_off |= !spec.tcp.sack_enabled;
    delack_off |= !spec.receiver.delayed_ack;
    small_buffer |= spec.scenario.setting == Setting::kCoreScale &&
                    spec.scenario.net.buffer_bytes * 10 <= core_buffer;
    drop_log |= spec.record_drop_log;
  }
  EXPECT_EQ(settings.size(), 2u);
  for (const std::set<std::string>& mix :
       std::vector<std::set<std::string>>{{"newreno"},
                                          {"cubic"},
                                          {"bbr"},
                                          {"cubic", "newreno"},
                                          {"bbr", "newreno"},
                                          {"bbr", "cubic"}}) {
    std::string names;
    for (const std::string& cca : mix) names += cca + " ";
    EXPECT_EQ(mixes.count(mix), 1u) << "no cell runs exactly " << names;
  }
  EXPECT_TRUE(sack_off);
  EXPECT_TRUE(delack_off);
  EXPECT_TRUE(small_buffer);
  EXPECT_TRUE(drop_log);
}

TEST(check_stress, FigureGridRunsAuditCleanAtSmallScale) {
  if (!kAuditHooksCompiled) {
    GTEST_SKIP() << "audit hooks compiled out (CCAS_CHECK_HOOKS=OFF)";
  }
  if (!check_enabled_from_env()) {
    GTEST_SKIP() << "tier-2 stress grid; set CCAS_CHECK=1 to run";
  }
  // Table 1, Figs 2-3 and burstiness share a grid: their cell runs once.
  std::map<uint64_t, ExperimentResult> results;
  for (const StressCell& s : stress_grid()) {
    const std::string what = (s.figure ? s.figure->id + " " : "") + s.cell.name;
    SCOPED_TRACE(what);
    const uint64_t key = sweep::spec_cache_key(s.cell.spec);
    if (results.count(key) == 0) {
      // run_experiment throws with the auditor's report on any violation.
      ASSERT_NO_THROW(results[key] = run_experiment(s.cell.spec)) << what;
    }
    const ExperimentResult& result = results[key];
    EXPECT_GT(result.aggregate_goodput_bps + result.workload_goodput_bps, 0.0) << what;
    EXPECT_GT(result.sim_events, 0u) << what;
    if (s.figure == nullptr) continue;
    bench::FigureReport report;
    s.figure->extract({s.cell}, {&result}, report);
    ASSERT_FALSE(report.rows.empty()) << what;
    for (const bench::Row& row : report.rows) {
      EXPECT_EQ(row.size(), s.figure->header.size()) << what;
    }
  }
}

// Tier-2 userscale workload stress: a high-rate open-loop mix (short web
// objects, request-response, open-loop video) churning thousands of
// app-limited dynamic flows through the arena/reaper path with the
// auditor on. Under ASan this doubles as a use-after-free check on the
// workload engine's slot recycling and stale-app-timer generation guard.
TEST(check_stress, UserscaleWorkloadRunsAuditCleanAtScale) {
  if (!kAuditHooksCompiled) {
    GTEST_SKIP() << "audit hooks compiled out (CCAS_CHECK_HOOKS=OFF)";
  }
  if (!check_enabled_from_env()) {
    GTEST_SKIP() << "tier-2 stress grid; set CCAS_CHECK=1 to run";
  }
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.seed = 42;
  compress(spec);
  spec.groups.push_back({"cubic", 2, TimeDelta::millis(20)});
  spec.workload.arrival = ArrivalKind::kPoisson;
  spec.workload.arrivals_per_sec = 2000.0;
  spec.workload.max_concurrent = 4096;
  WorkloadClass web;
  web.name = "web";
  web.weight = 0.8;
  web.cca = "cubic";
  web.rtt = TimeDelta::millis(20);
  web.size.kind = SizeDistKind::kPareto;
  web.size.pareto_alpha = 1.2;
  web.size.min_segments = 2;
  web.size.max_segments = 200;
  web.app = AppModel::kWebObject;
  web.app_burst_segments = 8;
  web.app_gap = TimeDelta::millis(2);
  WorkloadClass rr;
  rr.name = "rr";
  rr.weight = 0.1;
  rr.cca = "newreno";
  rr.rtt = TimeDelta::millis(40);
  rr.size.kind = SizeDistKind::kFixed;
  rr.size.fixed_segments = 24;
  rr.size.min_segments = 24;
  rr.size.max_segments = 24;
  rr.app = AppModel::kRequestResponse;
  rr.app_burst_segments = 4;
  rr.app_gap = TimeDelta::millis(5);
  WorkloadClass video;
  video.name = "video";
  video.weight = 0.1;
  video.cca = "bbr";
  video.rtt = TimeDelta::millis(30);
  video.size.kind = SizeDistKind::kFixed;
  video.size.fixed_segments = 64;
  video.size.min_segments = 64;
  video.size.max_segments = 64;
  video.app = AppModel::kVideoChunk;
  video.app_burst_segments = 16;
  video.app_gap = TimeDelta::millis(20);
  spec.workload.classes = {web, rr, video};
  // Loss + reordering leave retransmission timers and stray duplicates
  // behind departing flows: the reap-grace safety argument under fire.
  spec.scenario.net.impairments.loss = 0.005;
  spec.scenario.net.impairments.reorder = 0.005;
  spec.scenario.net.impairments.reorder_delay = TimeDelta::millis(1);

  ExperimentResult result;
  ASSERT_NO_THROW(result = run_experiment(spec));
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  for (const WorkloadClassResult& c : result.workload_classes) {
    arrivals += c.arrivals;
    completed += c.completed;
  }
  EXPECT_GT(arrivals, 2000u);
  // The mix deliberately overloads the 100 Mbps link (open-loop overload is
  // the stressful regime); a third still completes within the horizon.
  EXPECT_GT(completed, arrivals / 3);
  EXPECT_GT(result.workload_goodput_bps, 0.0);
}

}  // namespace
}  // namespace ccas::check
