// Shared grid for the inter-CCA fairness figures (5-8): two flow groups
// with the same RTT competing at CoreScale, reporting the first group's
// share of aggregate throughput.
#pragma once

#include <string>

#include "bench/figures.h"

namespace ccas::bench {

// Labels: the population side's paper flow count, its count after
// REPRO_SCALE, and the RTT. The population is group A for equal-count
// cells and group B for "1 A vs thousands of B", whose single flow stays
// single at any scale.
inline FigureCell make_inter_cca_spec(const std::string& cca_a, int nominal_a,
                                      const std::string& cca_b, int nominal_b,
                                      int rtt_ms, const BenchDurations& durations,
                                      bool scale_group_a) {
  double scale = 1.0;
  FigureCell cell;
  cell.spec.scenario = make_scenario(Setting::kCoreScale, durations, &scale);
  const int actual_a = scale_group_a ? scaled_flow_count(nominal_a, scale) : nominal_a;
  const int actual_b = scaled_flow_count(nominal_b, scale);
  cell.spec.groups.push_back(FlowGroup{cca_a, actual_a, TimeDelta::millis(rtt_ms)});
  cell.spec.groups.push_back(FlowGroup{cca_b, actual_b, TimeDelta::millis(rtt_ms)});
  cell.spec.seed = 42;
  cell.spec.record_drop_log = false;  // not needed; saves RAM on long runs
  cell.name = cca_a + ":" + std::to_string(nominal_a) + "-vs-" + cca_b + ":" +
              std::to_string(nominal_b) + "/rtt=" + std::to_string(rtt_ms);
  cell.labels = {std::to_string(scale_group_a ? nominal_a : nominal_b),
                 std::to_string(scale_group_a ? actual_a : actual_b),
                 std::to_string(rtt_ms)};
  return cell;
}

// The paper's 1000/3000/5000 flows x 20/100/200 ms grid: `cca_a` vs an
// equal number of `cca_b` flows, or one `cca_a` flow vs all of them.
inline Grid inter_cca_grid(const std::string& cca_a, const std::string& cca_b,
                           bool one_vs_many, const BenchDurations& durations) {
  Grid cells;
  for (const int flows : {1000, 3000, 5000}) {
    for (const int rtt_ms : {20, 100, 200}) {
      cells.push_back(one_vs_many ? make_inter_cca_spec(cca_a, 1, cca_b, flows, rtt_ms,
                                                        durations, false)
                                  : make_inter_cca_spec(cca_a, flows / 2, cca_b,
                                                        flows / 2, rtt_ms, durations,
                                                        true));
    }
  }
  return cells;
}

}  // namespace ccas::bench
