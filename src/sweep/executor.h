// Thread-pool sweep executor. Each cell is one complete, single-threaded,
// deterministic simulation (run_experiment), so cells parallelize with no
// shared mutable state: results are a pure function of each cell's spec
// and are byte-identical at any --jobs level. With a cache directory set,
// cells whose canonical spec hash is already on disk are served from the
// cache instead of simulated (result_cache.h); traced specs
// (trace_interval > 0) always simulate, since traces are not cached.
//
// Supervision (supervisor.h, manifest.h): per-cell budgets (wall-clock
// watchdog, simulated-event ceiling, estimated-RSS ceiling), failure
// isolation (a failing cell becomes a CellFailure in its outcome instead
// of aborting the sweep), bounded deterministic retry for transient
// failure classes, and a resumable on-disk manifest (resume_dir) whose
// journal lets an interrupted sweep skip every completed cell and still
// produce byte-identical results. fail_fast restores the legacy contract:
// abort on the first failure and rethrow it after all workers stop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/supervisor.h"
#include "src/sweep/sweep_spec.h"

namespace ccas::sweep {

struct SweepOptions {
  // Worker threads; 0 = std::thread::hardware_concurrency() (at least 1).
  int jobs = 0;
  // Result cache directory; empty disables caching entirely.
  std::string cache_dir;
  // When false, the cache is neither read nor written even if cache_dir
  // is set (the --no-cache flag).
  bool use_cache = true;
  // Live per-cell progress lines on stderr.
  bool progress = true;
  // Cache-key salt; defaults to the library's code-version salt.
  std::string cache_salt = std::string(kSweepCodeSalt);

  // ---- supervision (budgets all off by default) -----------------------
  // Wall-clock watchdog per cell attempt; zero disables.
  TimeDelta cell_timeout = TimeDelta::zero();
  // Simulated-event ceiling per cell attempt; 0 disables.
  uint64_t max_cell_events = 0;
  // Estimated-peak-RSS ceiling per cell attempt, bytes; 0 disables.
  int64_t max_cell_rss_bytes = 0;
  // Retries for transient failure classes (cache/manifest I/O); each
  // retry backs off deterministically (supervisor.h). Deterministic
  // classes never retry regardless.
  int retries = 2;
  // Abort the sweep (skip unclaimed cells) after this many terminal cell
  // failures; 0 = never abort, run everything.
  int max_failures = 0;
  // Legacy contract: abort on the first failure and rethrow it from
  // run() after all workers stop. Mutually exclusive with max_failures.
  bool fail_fast = false;
  // Sweep manifest directory (--resume): journaled-ok cells are skipped
  // (served from <resume_dir>/results byte-identically), everything else
  // runs and is journaled. Empty disables the manifest entirely.
  std::string resume_dir;
  // Where failed cells write .repro replay files; empty defaults to
  // <resume_dir>/quarantine when a manifest is in use, else quarantine
  // emission is off.
  std::string quarantine_dir;
};

// Reads CCAS_JOBS, CCAS_CACHE_DIR and CCAS_NO_CACHE into a SweepOptions
// (the environment interface of ccas_figures and ccas_run; flags override
// on top).
[[nodiscard]] SweepOptions sweep_options_from_env();

enum class CellStatus {
  kOk,       // result is valid (simulated, cached, or resumed)
  kFailed,   // failure holds the terminal CellFailure; result is empty
  kSkipped,  // sweep aborted (max_failures) before this cell was claimed
};

struct CellOutcome {
  std::string name;
  uint64_t cache_key = 0;
  CellStatus status = CellStatus::kSkipped;
  bool from_cache = false;
  // Served from the resume manifest without re-running.
  bool resumed = false;
  // Attempts consumed (0 for skipped cells, 1 for clean runs).
  int attempts = 0;
  double wall_sec = 0.0;
  ExperimentResult result;
  // Set iff status == kFailed.
  std::optional<CellFailure> failure;
};

struct SweepSummary {
  int total_cells = 0;
  int from_cache = 0;
  int failed = 0;
  int skipped = 0;
  int resumed = 0;
  int retries = 0;             // extra attempts beyond the first, summed
  double wall_sec = 0.0;       // whole sweep, wall clock
  uint64_t sim_events = 0;     // simulated (non-cached) cells only
  int jobs = 0;                // resolved worker count
};

class SweepExecutor {
 public:
  explicit SweepExecutor(SweepOptions options = {});

  // Runs every cell and returns outcomes in cell order — including the
  // failures, as explicit holes (CellStatus::kFailed) next to the
  // completed results. Only configuration errors throw: a manifest salt
  // mismatch (std::invalid_argument), an unusable manifest directory, or
  // — with fail_fast — the first cell failure, rethrown after all
  // workers stop (the legacy contract ccas_figures relies on).
  [[nodiscard]] std::vector<CellOutcome> run(const SweepSpec& sweep);

  // Terminal failures of the last run(), in cell order.
  [[nodiscard]] const std::vector<CellFailure>& failures() const {
    return failures_;
  }

  // Statistics of the last run().
  [[nodiscard]] const SweepSummary& summary() const { return summary_; }
  [[nodiscard]] const SweepOptions& options() const { return options_; }

 private:
  SweepOptions options_;
  SweepSummary summary_;
  std::vector<CellFailure> failures_;
};

}  // namespace ccas::sweep
