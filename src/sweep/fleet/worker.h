// The fleet worker (DESIGN.md §14): the claim → compute → commit loop one
// ccas_fleet process runs against a shared FleetStore until the manifest
// covers the frozen grid.
//
// Per pass over the grid, a worker tries to lease every cell the
// manifest does not yet cover (plus — once per worker per cell — cells
// with a journaled failure, mirroring how a single-process --resume
// retries journaled failures). A claimed cell is computed by
// run_supervised_cell (supervisor.h: budgets, wall-clock watchdog, fault
// injection, bounded deterministic retry for transient classes) while a
// heartbeat thread renews the lease every heartbeat interval; a renewal
// that discovers the lease was reclaimed cancels the in-flight simulation
// cooperatively and the cell is abandoned without a journal entry — its
// new holder owns the commit. Before committing, the
// worker re-checks lease possession (the fencing-token equality check in
// lease.h): a worker resurrected after a stall never double-commits over
// its cell's new holder. The commit order is results-store first, journal
// append second, so a crash between the two leaves a cache entry the next
// claimant adopts (journals without recomputing).
//
// Completion is coordinator-less: a worker keeps passing over the grid —
// sleeping between passes while other workers hold live leases — until
// every grid cell has a manifest record, then renders the final report
// (a pure function of manifest + grid, so every worker renders identical
// bytes) and exits. There is no "done" message and no coordinator to
// crash: a worker SIGKILLed mid-cell simply stops renewing, its lease
// expires, and any surviving worker reclaims the cell. An optional stall
// timeout bounds the wait when every remaining lease belongs to a worker
// that can no longer make progress the clock won't reveal (exit code 5,
// tools/EXIT_CODES.md).
#pragma once

#include <cstdint>
#include <string>

#include "src/sweep/executor.h"
#include "src/sweep/fleet/lease.h"
#include "src/sweep/fleet/store.h"
#include "src/sweep/sweep_spec.h"
#include "src/util/units.h"

namespace ccas::sweep::fleet {

struct FleetOptions {
  std::string dir;        // the shared store directory (required)
  std::string worker_id;  // "" → "w<pid>"
  uint64_t lease_ttl_ms = 30'000;
  uint64_t heartbeat_ms = 0;  // 0 → lease_ttl_ms / 3
  // Give up (exit incomplete) when no new manifest record appears for
  // this long while uncovered cells remain; 0 waits forever.
  uint64_t stall_timeout_ms = 0;
  std::string cache_salt = std::string(kSweepCodeSalt);

  // Per-cell budgets and the transient retry bound (supervisor.h).
  CellSupervision supervision;
  bool progress = true;

  // Injectable for lease-lifecycle tests; {} = wall clock.
  ClockMsFn clock;
};

struct FleetSummary {
  int total_cells = 0;
  int ok = 0;           // grid cells covered ok at exit
  int failed = 0;       // grid cells covered by a failure record at exit
  int computed = 0;     // cells this worker simulated and committed
  int adopted = 0;      // cells committed from a found results-store entry
  int reattempts = 0;   // journaled failures this worker re-ran
  int lost_leases = 0;  // computes abandoned because the lease was lost
  bool complete = false;  // manifest covers the grid
  double wall_sec = 0.0;
  // The final report (render_fleet_report) — identical bytes from every
  // worker that observes the complete manifest. Rendered (with pending
  // cells listed) even when incomplete.
  std::string report;
  // tools/EXIT_CODES.md: 0 ok, 2/3/4 by worst failure class, 5 incomplete.
  int exit_code = 0;
};

class FleetWorker {
 public:
  // Validates options (throws std::invalid_argument on an empty dir, a
  // zero TTL, or a heartbeat >= TTL).
  explicit FleetWorker(FleetOptions options);

  // Joins (creating if needed) the store for `sweep` and works cells to
  // completion. Store/salt/grid mismatches throw std::invalid_argument.
  [[nodiscard]] FleetSummary run(const SweepSpec& sweep);

  [[nodiscard]] const FleetOptions& options() const { return options_; }

 private:
  FleetOptions options_;
};

// The deterministic final report: one line per grid cell in grid order
// (ok + digest, or failure class + message), then a coverage summary.
// Derived from manifest + grid only — wall clock, worker ids, and
// attempt counts are deliberately excluded so every renderer agrees.
[[nodiscard]] std::string render_fleet_report(FleetStore& store);

// Exit code for the store's current state (reload before calling): 5
// while any grid cell is uncovered, else failure_exit_code (supervisor.h)
// of the journaled failures — 0 all ok, then 2 > 3 > 4.
[[nodiscard]] int fleet_exit_code(FleetStore& store);

}  // namespace ccas::sweep::fleet
