// Builds and runs one experiment end-to-end: topology, per-flow TCP
// endpoints with the requested CCAs, staggered starts, the optional
// open-loop workload (flow arrivals and departures), warm-up exclusion,
// optional convergence-based early stop, and result extraction, all on one
// serial Simulator.
#pragma once

#include "src/harness/experiment.h"
#include "src/sim/budget.h"

namespace ccas {

// Runs the experiment to completion and returns the steady-state result.
// Deterministic given spec.seed. Throws std::invalid_argument on malformed
// specs (no groups, unknown CCA names, non-positive durations) and
// check::AuditViolationError when auditing is enabled and the final audit
// found violations.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec);

// Same, under a cooperative resource budget (sim/budget.h): the kernel
// throws BudgetExceeded when the cell overruns its event / wall-clock /
// estimated-RSS ceiling. The harness augments budget->extra_rss_bytes
// with its own footprint (drop log, congestion log, per-flow state); the
// caller's budget object is not mutated. A run that stays within budget
// is byte-identical to
// run_experiment(spec) — the budget only observes. nullptr (or a budget
// with no limits set) behaves exactly like the one-argument overload.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentSpec& spec,
                                              const SimBudget* budget);

}  // namespace ccas
