// ccas_figures — reproduces the paper's tables and figures, plus the
// ablations and extensions, from the figure table (bench/figures.cc).
//
//   ccas_figures --figure=fig4 --jobs=8
//   ccas_figures --figure=all
//   ccas_figures --help        # lists the figure ids
//
// The chosen rows' cells go through one sweep (parallel across cores,
// served from the on-disk result cache when unchanged; a spec several rows
// share runs once). Each row then prints its table next to the paper's
// reference values and writes <bench name>.csv into the working directory.
// Exit codes (tools/EXIT_CODES.md): 0 ok; 1 usage error, bad REPRO_* value,
// failed cell (figures run fail-fast) or failed row gate.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench/figures.h"
#include "src/harness/cli.h"
#include "src/harness/report.h"
#include "src/sweep/executor.h"
#include "src/util/csv.h"

namespace {

using namespace ccas;
using namespace ccas::bench;

// Prints the row's table and writes it to <name>.csv in the working directory.
void print_report(const Figure& figure, const FigureReport& report) {
  std::printf("\n=== %s ===\n%s\n", figure.name.c_str(), report.caption.c_str());
  Table table(figure.header);
  for (const Row& row : report.rows) table.add_row(row);
  table.print();
  const std::string path = figure.name + ".csv";
  CsvWriter csv(path, figure.header);
  for (const Row& row : report.rows) csv.row(row);
  std::printf("(csv written to %s)\n", path.c_str());
}

int run(const FiguresCliOptions& opts) {
  std::vector<const Figure*> figures;
  for (const Figure& f : figure_table()) {
    if (opts.figure == "all" || opts.figure == f.id) figures.push_back(&f);
  }
  sweep::SweepSpec sweep;
  sweep.name = figures.size() == 1 ? figures[0]->name : "ccas_figures";
  std::vector<Grid> grids;
  std::vector<std::vector<size_t>> slots;  // per row: its cells' sweep indices
  // One sweep cell per distinct spec: rows that share a spec (the Mathis
  // grid of Table 1, Figs 2-3 and burstiness; ablation_buffer's 100% cell
  // and ablation_delack's default cell) simulate it once.
  std::map<uint64_t, size_t> registered;  // spec_cache_key -> sweep index
  for (const Figure* f : figures) {
    grids.push_back(f->grid());
    std::vector<size_t>& row_slots = slots.emplace_back();
    for (const FigureCell& cell : grids.back()) {
      const auto [it, added] =
          registered.try_emplace(sweep::spec_cache_key(cell.spec), sweep.cells.size());
      if (added) sweep.add_cell(cell.name, cell.spec);
      row_slots.push_back(it->second);
    }
  }

  sweep::SweepExecutor executor(opts.sweep);
  const std::vector<sweep::CellOutcome> outcomes = executor.run(sweep);

  int exit_code = 0;
  for (size_t i = 0; i < figures.size(); ++i) {
    Results results;
    for (const size_t slot : slots[i]) results.push_back(&outcomes[slot].result);
    FigureReport report;
    report.caption = figures[i]->caption;
    figures[i]->extract(grids[i], results, report);
    print_report(*figures[i], report);
    if (!report.failure.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", report.failure.c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> ids;
  for (const Figure& f : figure_table()) ids.push_back(f.id);
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::fputs(figures_cli_usage(ids).c_str(), stdout);
      return 0;
    }
  }
  try {
    return run(parse_figures_cli(args, ids));
  } catch (const std::exception& e) {
    // Usage errors, bad REPRO_* values, and (fail-fast) the first failed
    // cell, rethrown by the sweep executor once its workers stop.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
