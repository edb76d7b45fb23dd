// The benchmark's workloads, as the experiment specs handed to the
// library. Every spec is a pure function of (seed, size): the benchmark
// owns the seed, the library only ever sees the specs built from it.
//
//   core-mix         one serial CoreScale cell, 3000 long-lived flows
//                    split over newreno/cubic/bbr x 20/40/80 ms RTT
//   core-mix-sh3     the identical spec with shards = 3
//   userscale-churn  open-loop Poisson sessions on the CoreScale
//                    bottleneck under FQ-CoDel + ECN, no fixed flows
//   sweep-grid       {newreno,cubic,bbr} x {drop-tail,CoDel,PIE,RED+ECN}
//                    x {EdgeScale, reduced CoreScale}, half impaired
//
// Size::kTiny shrinks every workload to an EdgeScale-sized smoke run with
// the same structure (same layers exercised, seconds of host time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/sweep/sweep_spec.h"

namespace perfbench {

enum class Size { kFull, kTiny };

// The seed whose outputs are pinned (pinned_digests.json).
inline constexpr uint64_t kDefaultSeed = 1;

// Thread budget: 3 shard workers or 3 sweep jobs while the main thread
// waits, so a 4-core host runs every workload without oversubscription.
inline constexpr int kShards = 3;
inline constexpr int kSweepJobs = 3;

[[nodiscard]] const std::vector<std::string>& workload_names();

[[nodiscard]] ccas::ExperimentSpec core_mix_spec(uint64_t seed, Size size, int shards);
[[nodiscard]] ccas::ExperimentSpec userscale_churn_spec(uint64_t seed, Size size);
[[nodiscard]] ccas::sweep::SweepSpec sweep_grid_spec(uint64_t seed, Size size);

}  // namespace perfbench
