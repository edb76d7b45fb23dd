// Layer replay for traced runs: drives one layer's public API in a tight
// loop, with inputs sized from the workload's own counters, and reports
// the cost per operation. Replay numbers isolate a layer from the others,
// so they miss cross-layer cache effects; the aggregator reports the part
// of the event loop they do not explain instead of hiding it.
//
// Never called from an untraced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace perfbench {

// Replay inputs, each derived from counters of the workload's own run.
struct ReplaySizing {
  uint64_t pending_events = 0;     // wheel population (Little's law)
  double events_per_sim_s = 0.0;   // dispatch rate -> mean residence time
  double loss_per_segment = 0.0;   // retransmits / segments sent
  double rtt_s = 0.0;              // mean RTT the flows experienced
  double mean_window = 0.0;        // mean in-flight window, segments
  uint64_t queue_depth = 0;        // packets resident at the bottleneck
  uint32_t flows = 0;              // distinct flows feeding the bottleneck
  std::vector<std::string> ccas;   // CCAs the workload runs
  uint64_t live_flows = 0;         // flow-table population
  uint64_t gk_samples = 0;         // FCT completions in one run
  double fct_median_s = 0.0;
  uint64_t seed = 1;
};

// One replayed operation kind. `values` holds one number per timed batch
// (ns per operation) or per call (ms, for the result-cache rows).
struct ReplayMeasurement {
  std::string name;
  std::vector<double> values;
  uint64_t ops = 0;
  std::string sized_by;
};

// Every replay that needs no simulation results: wheel, scoreboard, each
// CCA's on_ack, drop-tail and FQ-CoDel, FlowTable, GK sketch. Each runs
// for about `budget_s`.
[[nodiscard]] std::vector<ReplayMeasurement> replay_layers(const ReplaySizing& sizing,
                                                          double budget_s);

// spec_cache_key over the workload's specs (us per call).
[[nodiscard]] ReplayMeasurement replay_spec_hash(
    const std::vector<ccas::ExperimentSpec>& specs, double budget_s);

// ResultCache::store / load of the workload's results in a private
// directory `dir` (created and removed here): store and load ms per call,
// plus the mean entry size in KB.
struct CacheReplay {
  ReplayMeasurement store_ms;
  ReplayMeasurement load_ms;
  double entry_kb = 0.0;
};
[[nodiscard]] CacheReplay replay_result_cache(
    const std::vector<const ccas::ExperimentResult*>& results, const std::string& dir,
    double budget_s);

}  // namespace perfbench
