// A named grid of independent experiment cells — the unit of work the
// SweepExecutor fans out across cores. Cells carry a stable name (the
// table/figure coordinate, e.g. "CoreScale/flows=3000/rtt=20") that is
// used for progress reporting and, when requested, for deriving the
// cell's RNG seed, so a sweep's results are a pure function of the spec
// regardless of submission order or --jobs level.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/experiment.h"

namespace ccas::sweep {

struct SweepCell {
  std::string name;
  ExperimentSpec spec;
};

// Deterministic per-cell seed: a stable hash of (base_seed, cell_name),
// never zero. Independent of the cell's position in the sweep, so adding
// or reordering cells does not perturb the others' results.
[[nodiscard]] uint64_t derive_cell_seed(uint64_t base_seed, std::string_view cell_name);

struct SweepSpec {
  std::string name;        // sweep label, e.g. the figure's bench name
  uint64_t base_seed = 1;  // mixed into derived cell seeds
  std::vector<SweepCell> cells;

  // Adds a cell keeping spec.seed exactly as the caller set it (the
  // benches pin seeds to reproduce the paper's published grids).
  SweepCell& add_cell(std::string cell_name, ExperimentSpec spec);

  // Adds a cell with spec.seed overwritten by derive_cell_seed(base_seed,
  // cell_name) — use for new grids where per-cell seed independence is
  // wanted without hand-assigning seeds.
  SweepCell& add_cell_derived_seed(std::string cell_name, ExperimentSpec spec);
};

}  // namespace ccas::sweep
