// ccas_fleet — one worker process of a multi-process sweep fleet
// (DESIGN.md §14). Point N independent invocations (same grid flags, any
// mix of hosts sharing the filesystem) at one --fleet-dir and they divide
// the grid between them through per-cell leases, journal outcomes into a
// shared manifest, and converge on results byte-identical to a serial
// `ccas_run` of the same flags:
//
//   ccas_fleet --fleet-dir=/shared/job1 --groups=newreno:4:20
//              --seeds=1,2,3,4,5,6,7,8 &     (twice, then `wait`:
//   both exit when the manifest covers the grid)
//
// A worker killed mid-cell (even kill -9) simply stops renewing its
// lease; after --lease-ttl any surviving worker reclaims the cell. A
// worker that stalls past its TTL and later wakes finds its fencing
// token stale and abandons the cell instead of double-committing. The
// job is complete when the shared manifest covers the frozen grid — no
// coordinator, no "done" message; every worker (and --report-only)
// renders byte-identical final reports from the store.
//
// Exit codes (tools/EXIT_CODES.md): 0 ok, 1 usage/config (bad flags,
// salt or grid mismatch), 2 deterministic cell failure, 3 budget
// blowout, 4 transient-exhausted, 5 job incomplete (--fleet-wait hit, or
// --report-only on an unfinished store).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/sweep/fleet/store.h"
#include "src/sweep/fleet/worker.h"
#include "src/sweep/spec_hash.h"

int main(int argc, char** argv) {
  using namespace ccas;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(fleet_cli_usage().c_str(), stdout);
      return 0;
    }
  }
  try {
    const FleetCli cli = parse_fleet_cli(args);

    if (cli.fleet.report_only) {
      sweep::fleet::FleetStore store(cli.fleet.fleet_dir,
                                     std::string(sweep::kSweepCodeSalt));
      std::fputs(sweep::fleet::render_fleet_report(store).c_str(), stdout);
      return sweep::fleet::fleet_exit_code(store);
    }

    const sweep::SweepSpec sweep = seed_grid(cli.run, "ccas_fleet");
    sweep::fleet::FleetOptions opts;
    opts.dir = cli.fleet.fleet_dir;
    opts.worker_id = cli.fleet.worker_id;
    opts.lease_ttl_ms = cli.fleet.lease_ttl_ms;
    opts.heartbeat_ms = cli.fleet.heartbeat_ms;
    opts.stall_timeout_ms = cli.fleet.wait_ms;
    opts.cache_salt = cli.run.sweep.cache_salt;
    opts.supervision = cli.run.sweep.supervision;

    sweep::fleet::FleetWorker worker(opts);
    const sweep::fleet::FleetSummary summary = worker.run(sweep);

    std::fputs(summary.report.c_str(), stdout);
    std::fprintf(stderr,
                 "[ccas_fleet %s] %d cells (%d computed here, %d adopted, "
                 "%d reattempted, %d leases lost) in %.2fs%s\n",
                 worker.options().worker_id.c_str(), summary.total_cells,
                 summary.computed, summary.adopted, summary.reattempts,
                 summary.lost_leases, summary.wall_sec,
                 summary.complete ? "" : " — JOB INCOMPLETE");
    return summary.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
