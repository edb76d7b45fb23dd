// Shared experiment grid for the Mathis-model suite (Table 1, Figure 2,
// Figure 3, and the burstiness corroboration of Finding 3): all-NewReno
// runs at 20 ms RTT across the paper's EdgeScale and CoreScale flow
// counts. The four rows register the same six cells, so ccas_figures
// --figure=all simulates them once.
#pragma once

#include <string>
#include <vector>

#include "bench/figures.h"
#include "src/stats/burstiness.h"
#include "src/stats/mathis_fit.h"

namespace ccas::bench {

struct MathisCell {
  MathisFit fit_loss;     // p = packet loss rate
  MathisFit fit_halving;  // p = CWND halving rate
  // Mean per-flow ratio of packet-loss rate to CWND-halving rate (Fig 3).
  double loss_to_halving_ratio = 0.0;
  // Goh-Barabasi burstiness of the bottleneck drop process (Finding 3).
  double drop_burstiness = 0.0;
};

// Labels: setting, the paper's flow count, the flow count after REPRO_SCALE.
inline FigureCell make_mathis_spec(Setting setting, int nominal_flows,
                                   const BenchDurations& durations) {
  FigureCell cell;
  double scale = 1.0;
  cell.spec.scenario = make_scenario(setting, durations, &scale);
  const int actual_flows = scaled_flow_count(nominal_flows, scale);
  cell.spec.groups.push_back(FlowGroup{"newreno", actual_flows, TimeDelta::millis(20)});
  cell.spec.seed = 42;
  cell.name = cell.spec.scenario.name() + "/flows=" + std::to_string(nominal_flows);
  cell.labels = {cell.spec.scenario.name(), std::to_string(nominal_flows),
                 std::to_string(actual_flows)};
  return cell;
}

inline MathisCell analyze_mathis_cell(const ExperimentResult& result) {
  MathisCell cell;
  std::vector<MathisObservation> obs_loss;
  std::vector<MathisObservation> obs_halving;
  double ratio_sum = 0.0;
  int ratio_n = 0;
  for (const FlowMeasurement& f : result.flows) {
    // The model is evaluated against the RTT the flow experienced
    // (tcpprobe-style srtt), exactly as the testbed measurements are.
    obs_loss.push_back(MathisObservation{f.goodput_bps, f.packet_loss_rate, f.mean_rtt});
    obs_halving.push_back(
        MathisObservation{f.goodput_bps, f.cwnd_halving_rate, f.mean_rtt});
    if (f.cwnd_halving_rate > 0.0 && f.packet_loss_rate > 0.0) {
      ratio_sum += f.packet_loss_rate / f.cwnd_halving_rate;
      ++ratio_n;
    }
  }
  cell.fit_loss = fit_mathis_constant(obs_loss, kMssBytes);
  cell.fit_halving = fit_mathis_constant(obs_halving, kMssBytes);
  cell.loss_to_halving_ratio = ratio_n > 0 ? ratio_sum / ratio_n : 0.0;
  if (result.drop_times.size() >= 3) {
    cell.drop_burstiness = goh_barabasi_burstiness_from_times(result.drop_times);
  }
  return cell;
}

// Durations: EdgeScale loss events are rare (one sawtooth is ~minutes of
// simulated time at 100 Mbps), so edge cells run long — they are cheap.
// CoreScale cells need the window to cover several sawtooth periods of the
// *smallest* flow count (~45 s per period at 1000 flows / 20 ms).
inline Grid mathis_grid() {
  Grid cells;
  for (const int flows : {10, 30, 50}) {
    cells.push_back(make_mathis_spec(Setting::kEdgeScale, flows, {2.0, 60.0, 240.0}));
  }
  for (const int flows : {1000, 3000, 5000}) {
    cells.push_back(make_mathis_spec(Setting::kCoreScale, flows, {2.0, 15.0, 90.0}));
  }
  return cells;
}

}  // namespace ccas::bench
