// The paper's evaluation as one table (DESIGN.md §3-§5): one row per
// reproduced table, figure, finding, ablation or extension. A row declares
// its cell grid, the header and extractor of the table it prints next to
// the paper's reference values, and its caption. ccas_figures runs one row
// or every row through the sweep executor, and tests/check_stress_test.cc
// audits one cell of every row, so a new row is run and audited with no
// other change.
//
// Scale knobs (environment), parsed strictly by
// Scenario::apply_env_overrides:
//   REPRO_SCALE        scale bandwidth + buffer + flow counts together
//                      (default 0.2: 2 Gbps / 200-1000 flows CoreScale;
//                      per-flow BDP and dynamics are preserved — set 1 for
//                      the paper's full 10 Gbps / 1000-5000 flows, which
//                      costs ~25x more wall time);
//   REPRO_WARMUP_SEC / REPRO_MEASURE_SEC / REPRO_STAGGER_SEC
//                      override the per-row default durations.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/harness/runner.h"

namespace ccas::bench {

// Figures default to 1/5 scale so the whole table runs in minutes;
// REPRO_SCALE=1 reproduces the paper's full CoreScale.
inline constexpr double kDefaultScale = 0.2;

struct BenchDurations {
  double stagger_sec = 2.0;
  double warmup_sec = 5.0;  // DESIGN.md §1: 5 s default warm-up
  double measure_sec = 20.0;
};

// Builds the scenario for `setting` with a row's default durations and the
// env overrides applied; stores the applied scale factor in `scale_out`.
// REPRO_SCALE shrinks only CoreScale: EdgeScale (100 Mbps, tens of flows)
// is already cheap and is always run exactly as in the paper.
[[nodiscard]] Scenario make_scenario(Setting setting, const BenchDurations& d,
                                     double* scale_out);

using Row = std::vector<std::string>;

// One experiment of a row's grid.
struct FigureCell {
  std::string name;  // the sweep cell name, e.g. "CoreScale/flows=3000"
  ExperimentSpec spec;
  Row labels;  // the printed row's leading columns, fixed by the grid
};
using Grid = std::vector<FigureCell>;
// A grid's results, in grid order.
using Results = std::vector<const ExperimentResult*>;

// What a row prints, filled in by its extractor.
struct FigureReport {
  std::vector<Row> rows;
  std::string caption;  // starts as the row's caption; fits may be appended
  std::string failure;  // non-empty when the row's gate fails (exit 1)
};

struct Figure {
  std::string id;    // --figure=<id>
  std::string name;  // the table title and <name>.csv
  std::function<Grid()> grid;
  Row header;
  std::function<void(const Grid&, const Results&, FigureReport&)> extract;
  std::string caption;
};

// Every row, in the order --figure=all prints them.
[[nodiscard]] const std::vector<Figure>& figure_table();

}  // namespace ccas::bench
