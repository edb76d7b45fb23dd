// Command-line experiment description, used by tools/ccas_run and
// tools/ccas_fleet: parses "--key=value" flags into an ExperimentSpec so any
// of the paper's configurations (and new ones) can be run without writing
// C++, and renders a spec back into those flags for .repro replay files.
// bench/ccas_figures parses its sweep flags here too.
//
//   ccas_run --setting=core --groups=bbr:1:20,newreno:1000:20
//            --warmup=10 --measure=30 --seed=7 --trace=0.5 --csv=out
//
// Each flag is declared once, as a row of one of the flag tables in
// cli.cc (grid, fleet and figures flags): its name, value syntax, help text,
// parser and (for spec fields) renderer. parse_cli, cli_usage,
// parse_fleet_cli, fleet_cli_usage and spec_to_cli all read those tables;
// `ccas_run --help` and `ccas_fleet --help` print them. A value that is
// malformed, non-finite or out of range for its flag throws
// std::invalid_argument (exit 1, tools/EXIT_CODES.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/sweep/executor.h"

namespace ccas {

struct CliOptions {
  ExperimentSpec spec;
  std::string csv_prefix;        // empty = no CSV
  std::vector<uint64_t> seeds;   // extra seeds beyond spec.seed (--seeds)
  // --jobs, --cache-dir, --no-cache and the supervision flags, on top of
  // CCAS_JOBS, CCAS_CACHE_DIR and CCAS_NO_CACHE (parsed as strictly).
  sweep::SweepOptions sweep;
  // --perf: print the kernel profiler summary (events/sec, scheduler and
  // timer counters) after each cell. Output-only — not part of the spec.
  bool perf = false;
};

// Parses argv-style arguments (excluding argv[0]). Throws
// std::invalid_argument with a human-readable message on bad input.
[[nodiscard]] CliOptions parse_cli(const std::vector<std::string>& args);

// The --help text.
[[nodiscard]] std::string cli_usage();

// The sweep a parsed command line describes: one cell per --seeds entry
// (spec.seed alone without --seeds), each named "seed=<n>", the name
// CCAS_FAIL_CELL and the .repro replay lines use.
[[nodiscard]] sweep::SweepSpec seed_grid(const CliOptions& opts, std::string name);

// ---- ccas_fleet ----------------------------------------------------------
//
// Fleet-specific flags (DESIGN.md §14, `ccas_fleet --help`); every other
// flag is handed to parse_cli and describes the grid, exactly as for
// ccas_run.
struct FleetCliOptions {
  std::string fleet_dir;
  uint64_t lease_ttl_ms = 30'000;
  uint64_t heartbeat_ms = 0;  // 0 → lease_ttl_ms / 3
  uint64_t wait_ms = 0;       // 0 → wait forever
  std::string worker_id;      // "" → w<pid>
  bool report_only = false;
};

struct FleetCli {
  FleetCliOptions fleet;
  // The grid and supervision flags (unset in --report-only mode, which
  // reads the grid from the store's frozen job.spec).
  CliOptions run;
};

// Splits fleet flags from grid flags and validates both. Throws
// std::invalid_argument on: a missing/empty --fleet-dir, a non-positive
// --lease-ttl or --heartbeat (or one that rounds to zero ms), a heartbeat
// not shorter than the TTL, a malformed --worker-id, grid flags combined
// with --report-only, grid flags that cannot describe a fleet job
// (those whose table row gives a fleet rejection reason), or a set
// CCAS_JOBS, CCAS_CACHE_DIR or CCAS_NO_CACHE (the environment of three
// such flags).
[[nodiscard]] FleetCli parse_fleet_cli(const std::vector<std::string>& args);

// The ccas_fleet --help text.
[[nodiscard]] std::string fleet_cli_usage();

// ---- ccas_figures ---------------------------------------------------------
//
// The reproduction front end (bench/ccas_figures.cc): which row of the
// figure table to run, plus the sweep flags every row shares.
struct FiguresCliOptions {
  std::string figure;  // a figure id, or "all"
  // From CCAS_JOBS / CCAS_CACHE_DIR / CCAS_NO_CACHE with the flags on top.
  // The cache defaults to .ccas-cache, and a failed cell aborts the run
  // (fail_fast): a figure is printed whole or not at all.
  sweep::SweepOptions sweep;
};

// Throws std::invalid_argument on a bad flag, or when --figure is missing
// or names neither one of `ids` nor "all".
[[nodiscard]] FiguresCliOptions parse_figures_cli(const std::vector<std::string>& args,
                                                  const std::vector<std::string>& ids);

// The ccas_figures --help text, listing `ids`.
[[nodiscard]] std::string figures_cli_usage(const std::vector<std::string>& ids);

// Inverse of parse_cli for a single cell: `args` reproduces `spec` exactly
// — spec_cache_key-identical after a parse_cli round trip — despite the
// truncating double→int64 casts in TimeDelta::seconds_f / DataRate::bps_f
// (values are nudged by ULPs until the re-parse lands on the same
// nanosecond / bit). Spec fields no flag can express (num_pairs, GRO
// timings, convergence knobs, ...) are listed in `notes` instead of being
// silently dropped. The sweep supervisor's quarantine .repro files are
// built from this.
struct SpecCliRendering {
  std::vector<std::string> args;
  std::vector<std::string> notes;
};

[[nodiscard]] SpecCliRendering spec_to_cli(const ExperimentSpec& spec);

// "ccas_run <args...>" on one line, for humans and quarantine files.
[[nodiscard]] std::string spec_to_cli_command(const ExperimentSpec& spec);

}  // namespace ccas
