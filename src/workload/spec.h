// Open-loop workload specification (ROADMAP item 4): session arrival
// processes, heavy-tailed flow-size distributions (plus empirical CDF
// files), application pacing models, and per-class traffic mixes — the
// "millions of users" regime the paper's fixed-bulk-flow methodology does
// not capture. Pure data + sampling; the engine that drives it lives in
// src/workload/engine.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/units.h"

namespace ccas {

enum class ArrivalKind : uint8_t {
  kPoisson,        // exponential inter-arrival gaps, mean 1/rate
  kDeterministic,  // fixed gaps of exactly 1/rate
};

enum class SizeDistKind : uint8_t {
  kPareto,     // bounded Pareto (the classic heavy-tailed Internet model)
  kLognormal,  // lognormal of the segment count, clamped to [min, max]
  kFixed,      // every flow the same size
  kEmpirical,  // step-function inverse CDF loaded from a file
};

enum class AppModel : uint8_t {
  kBulk,             // greedy source: cwnd-limited, never app-limited
  kRequestResponse,  // burst, wait for the ACK, think (exponential), repeat
  kWebObject,        // burst, wait for the ACK, fixed inter-object gap
  kVideoChunk,       // open-loop: release one chunk every interval
};

// One point of an empirical flow-size CDF: P(size <= segments) = cum_prob.
struct EmpiricalPoint {
  double cum_prob = 0.0;
  uint64_t segments = 0;
};

struct SizeDist {
  SizeDistKind kind = SizeDistKind::kPareto;
  // Bounds applied to every distribution (Pareto support, lognormal clamp).
  uint64_t min_segments = 1;
  uint64_t max_segments = 1u << 20;
  double pareto_alpha = 1.2;
  // Parameters of log(segments) for kLognormal.
  double lognormal_mu = 3.0;
  double lognormal_sigma = 1.0;
  uint64_t fixed_segments = 10;
  // kEmpirical: sorted by cum_prob, strictly increasing, last == 1.0.
  std::vector<EmpiricalPoint> empirical;
  std::string empirical_path;  // provenance (spec_to_cli renders it)

  void validate() const;  // throws std::invalid_argument
  // One uniform draw -> size in segments, always within [min, max] (for
  // kEmpirical: within the file's support). Deterministic per rng stream.
  [[nodiscard]] uint64_t sample(Rng& rng) const;
  // Expected segment count of the *continuous* law (discretization and the
  // lognormal clamp perturb the sampled mean slightly; the property tests
  // pick parameters where both effects stay inside tolerance).
  [[nodiscard]] double analytic_mean_segments() const;
};

struct WorkloadClass {
  std::string name = "default";
  double weight = 1.0;  // class-pick probability; all weights sum to 1
  std::string cca = "cubic";
  TimeDelta rtt = TimeDelta::millis(20);
  SizeDist size;
  AppModel app = AppModel::kBulk;
  // kRequestResponse / kWebObject: segments released per burst.
  // kVideoChunk: segments per chunk.
  uint64_t app_burst_segments = 0;
  // kRequestResponse: mean think time (exponential, per-flow rng).
  // kWebObject: fixed inter-object gap. kVideoChunk: chunk interval.
  TimeDelta app_gap = TimeDelta::zero();

  void validate() const;
};

struct WorkloadSpec {
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double arrivals_per_sec = 0.0;  // 0 = workload disabled
  uint64_t max_concurrent = 0;    // admission cap; 0 = unlimited
  std::vector<WorkloadClass> classes;

  [[nodiscard]] bool enabled() const {
    return arrivals_per_sec > 0.0 && !classes.empty();
  }
  void validate() const;  // throws std::invalid_argument
};

// Workload RNG seed: a pure function of the cell seed under its own salt
// (SplitMix64 finalizer, like derive_impairment_seed / derive_qdisc_seed),
// so arrival/size draws are independent of the master stream — whose
// consumption order every pre-workload golden depends on — and identical
// at any --jobs level.
[[nodiscard]] uint64_t derive_workload_seed(uint64_t cell_seed);

// Parses an empirical CDF file: one "cum_prob segments" pair per line,
// '#' comments and blank lines ignored; cum_prob strictly increasing, the
// last exactly 1.0. Throws std::invalid_argument with the offending line.
[[nodiscard]] std::vector<EmpiricalPoint> parse_empirical_cdf_file(
    const std::string& path);

}  // namespace ccas
