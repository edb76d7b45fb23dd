// ccas_run — command-line front end to the experiment harness: run any of
// the paper's configurations (or new ones) without writing C++.
//
//   ccas_run --setting=edge --groups=cubic:5:20,newreno:5:20 --measure=120
//   ccas_run --groups=bbr:1:20,newreno:1000:20 --rate=2000 --trace=0.5 --csv=run1
//   ccas_run --groups=newreno:600:20 --seeds=1,2,3,4 --jobs=4 --cache-dir=.ccas-cache
//
// Every run goes through the sweep executor: a plain invocation is a
// one-cell sweep, and --seeds fans one cell per seed across --jobs worker
// threads, with optional on-disk result caching (--cache-dir). Failing
// cells do not abort the sweep (unless --fail-fast): they are reported as
// explicit holes, quarantined as .repro replay files (--quarantine /
// --resume), and reflected in the exit code: 0 ok, 1 usage or
// configuration error, 2/3/4 by the worst failure class
// (sweep::failure_exit_code, tools/EXIT_CODES.md).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "src/harness/cli.h"
#include "src/harness/report.h"
#include "src/sweep/executor.h"

int main(int argc, char** argv) {
  using namespace ccas;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(cli_usage().c_str(), stdout);
      return 0;
    }
  }
  try {
    const CliOptions opts = parse_cli(args);
    std::printf("bottleneck %s, buffer %lld B, stagger %.1fs + warmup %.1fs + "
                "measure %.1fs\n\n",
                opts.spec.scenario.net.bottleneck_rate.to_string().c_str(),
                static_cast<long long>(opts.spec.scenario.net.buffer_bytes),
                opts.spec.scenario.stagger.sec(), opts.spec.scenario.warmup.sec(),
                opts.spec.scenario.measure.sec());

    const sweep::SweepSpec sweep = seed_grid(opts, "ccas_run");
    sweep::SweepExecutor executor(opts.sweep);
    const std::vector<sweep::CellOutcome> outcomes = executor.run(sweep);

    for (const sweep::CellOutcome& out : outcomes) {
      if (out.status == sweep::CellStatus::kFailed) {
        if (outcomes.size() > 1) {
          std::printf("=== %s (FAILED) ===\n", out.name.c_str());
        }
        std::printf("FAILED [%s] after %d attempt%s: %s\n",
                    sweep::failure_class_name(out.failure->cls),
                    out.failure->attempts, out.failure->attempts == 1 ? "" : "s",
                    out.failure->what.c_str());
        // One self-contained replay line; the quarantine .repro (if a dir
        // was configured) carries the same command plus budget flags.
        const size_t i = static_cast<size_t>(&out - outcomes.data());
        std::printf("repro: %s\n", spec_to_cli_command(sweep.cells[i].spec).c_str());
        if (outcomes.size() > 1) std::printf("\n");
        continue;
      }
      if (out.status == sweep::CellStatus::kSkipped) {
        if (outcomes.size() > 1) {
          std::printf("=== %s (SKIPPED) ===\n", out.name.c_str());
        }
        std::printf("skipped: sweep aborted (--max-failures) before this cell "
                    "was claimed\n");
        if (outcomes.size() > 1) std::printf("\n");
        continue;
      }
      if (outcomes.size() > 1) {
        std::printf("=== %s%s ===\n", out.name.c_str(),
                    out.from_cache ? " (cached)" : "");
      }
      std::printf("%s", summarize(out.result).c_str());
      if (opts.perf) {
        // Profiles are per-run observational output, not serialized into
        // the cache, so cached cells come back without one.
        if (out.from_cache) {
          std::printf("perf: (cached result, no profile)\n");
        } else {
          std::printf("%s", out.result.sim_profile.summary().c_str());
        }
      }
      if (!opts.csv_prefix.empty() && !out.result.trace.empty()) {
        // With several seeds each trace gets a per-cell suffix.
        const std::string prefix =
            outcomes.size() > 1 ? opts.csv_prefix + "_" + out.name
                                : opts.csv_prefix;
        out.result.trace.write_csv(prefix);
        std::printf("trace written to %s_flows.csv / %s_queue.csv\n",
                    prefix.c_str(), prefix.c_str());
      }
      if (outcomes.size() > 1) std::printf("\n");
    }

    const sweep::SweepSummary& summary = executor.summary();
    if (summary.failed > 0 || summary.skipped > 0) {
      std::fprintf(stderr,
                   "[ccas_run] %d cells (%d cached, %d FAILED, %d skipped) in "
                   "%.2fs with %d jobs\n",
                   summary.total_cells, summary.from_cache, summary.failed,
                   summary.skipped, summary.wall_sec, summary.jobs);
    } else if (summary.total_cells > 1 || summary.from_cache > 0) {
      std::fprintf(stderr,
                   "[ccas_run] %d cells (%d cached) in %.2fs with %d jobs\n",
                   summary.total_cells, summary.from_cache, summary.wall_sec,
                   summary.jobs);
    }

    std::vector<sweep::FailureClass> classes;
    for (const sweep::CellFailure& f : executor.failures()) classes.push_back(f.cls);
    return sweep::failure_exit_code(classes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
