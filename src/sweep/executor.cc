#include "src/sweep/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "src/sweep/manifest.h"
#include "src/sweep/progress.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep {

SweepExecutor::SweepExecutor(SweepOptions options) : options_(std::move(options)) {}

std::vector<CellOutcome> SweepExecutor::run(const SweepSpec& sweep) {
  const auto sweep_start = std::chrono::steady_clock::now();

  std::unique_ptr<ResultCache> cache;
  if (options_.use_cache && !options_.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(options_.cache_dir);
  }

  // The manifest (resume_dir) is self-contained: its own journal, its own
  // results store (independent of the ordinary cache, which may be shared
  // or disabled), and its quarantine directory. Construction throws
  // std::invalid_argument on a salt mismatch — a resume across simulator
  // versions must be refused loudly, not silently recomputed into a mixed
  // journal.
  std::unique_ptr<SweepManifest> manifest;
  std::unique_ptr<ResultCache> manifest_results;
  if (!options_.resume_dir.empty()) {
    manifest = std::make_unique<SweepManifest>(options_.resume_dir,
                                               options_.cache_salt);
    manifest_results = std::make_unique<ResultCache>(manifest->results_dir());
  }
  std::string quarantine_dir = options_.quarantine_dir;
  if (quarantine_dir.empty() && manifest) {
    quarantine_dir = manifest->quarantine_dir();
  }

  int jobs = options_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min(jobs, static_cast<int>(std::max<size_t>(sweep.cells.size(), 1)));

  std::vector<CellOutcome> outcomes(sweep.cells.size());
  // Names and keys are prefilled so cells skipped after a max_failures
  // abort still report coherently (status kSkipped, name intact).
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    outcomes[i].name = sweep.cells[i].name;
    outcomes[i].cache_key = spec_cache_key(sweep.cells[i].spec, options_.cache_salt);
  }

  ProgressReporter progress(sweep.name.empty() ? "sweep" : sweep.name,
                            static_cast<int>(sweep.cells.size()),
                            options_.progress);
  FaultPlan faults = FaultPlan::from_env();

  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> abort{false};
  std::atomic<int> terminal_failures{0};

  auto worker = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sweep.cells.size()) return;
      const SweepCell& cell = sweep.cells[i];
      CellOutcome& out = outcomes[i];
      const bool cacheable = cell.spec.trace_interval <= TimeDelta::zero();
      const auto cell_start = std::chrono::steady_clock::now();
      auto cell_elapsed = [&cell_start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             cell_start)
            .count();
      };

      // Resume short-circuit: a journaled-ok cacheable cell is served from
      // the manifest's results store without re-running. A journaled-ok
      // cell whose stored result is missing or corrupt — and any traced
      // cell — falls through and recomputes (deterministic, so identical).
      // Journaled *failures* are never short-circuited: resuming is the
      // natural moment to retry them, and deterministic ones will simply
      // reproduce.
      if (manifest && cacheable) {
        if (const ManifestRecord* rec = manifest->find(out.cache_key);
            rec != nullptr && rec->ok) {
          if (auto stored = manifest_results->load(out.cache_key)) {
            out.result = std::move(*stored);
            out.status = CellStatus::kOk;
            out.from_cache = true;
            out.resumed = true;
            out.attempts = rec->attempts;
            out.wall_sec = cell_elapsed();
            progress.cell_done(out.name, /*from_cache=*/true,
                               out.result.sim_events, out.wall_sec);
            continue;
          }
        }
      }

      // fail_fast aborts on the first failure, transient or not.
      CellSupervision supervision = options_.supervision;
      if (options_.fail_fast) supervision.retries = 0;
      // The ordinary cache is best-effort. With a manifest (--resume), its
      // own results store and journal are not: resume integrity depends on
      // them, so their failures surface as the transient kCacheIo class and
      // go through the retry/backoff path.
      ResultCache* cell_cache = cacheable ? cache.get() : nullptr;
      auto lookup = [&] {
        return cell_cache != nullptr ? cell_cache->load(out.cache_key) : std::nullopt;
      };
      auto persist = [&](const ExperimentResult& result, bool hit, int attempt) {
        if (cell_cache != nullptr && !hit) (void)cell_cache->store(out.cache_key, result);
        if (!manifest) return;
        if (!cacheable) return manifest->record_ok(out.cache_key, attempt);
        if (!manifest_results->store(out.cache_key, result)) {
          throw CacheIoError("sweep manifest: cannot store result for " +
                             cache_key_hex(out.cache_key) + " under " +
                             manifest->results_dir());
        }
        // The digest lets a later multi-worker (fleet) run — or a resume
        // on another host — verify byte-identity instead of trusting it:
        // divergent duplicates surface as structured determinism-violation
        // failures on replay.
        manifest->record_ok(out.cache_key, attempt, fnv1a64(serialize_result(result)));
      };
      auto on_retry = [&](const CellFailure& f) {
        progress.cell_retry(f.cell, failure_class_name(f.cls), f.attempts);
      };
      SupervisedCell run =
          run_supervised_cell(cell, out.cache_key, supervision, faults,
                              {std::ref(lookup), std::ref(persist), std::ref(on_retry)});
      out.result = std::move(run.result);
      out.from_cache = run.hit;
      out.attempts = run.attempts;
      out.wall_sec = cell_elapsed();
      if (!run.failure) {
        out.status = CellStatus::kOk;
        progress.cell_done(out.name, out.from_cache, out.result.sim_events,
                           out.wall_sec);
        continue;
      }

      if (manifest) {
        try {
          manifest->record_failure(*run.failure);
        } catch (const std::exception& e) {
          log_warn("sweep manifest: %s", e.what());
        }
      }
      if (options_.fail_fast) {
        // Legacy contract: first failure aborts the sweep and is
        // rethrown (as the original exception) after all workers stop.
        {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = run.error;
        }
        abort.store(true, std::memory_order_relaxed);
        return;
      }

      // Terminal failure (journaled above): capture it in the outcome (an
      // explicit hole in the partial results), quarantine a minimal repro,
      // and keep the sweep going.
      out.status = CellStatus::kFailed;
      out.failure = run.failure;
      if (!quarantine_dir.empty()) {
        (void)write_quarantine_file(quarantine_dir, cell, *run.failure,
                                    options_.supervision, run.injected);
      }
      progress.cell_failed(out.name, failure_class_name(run.failure->cls),
                           run.failure->attempts);
      if (options_.max_failures > 0 &&
          terminal_failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
              options_.max_failures) {
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };

  // A one-job sweep also gets its own thread. Running it on the calling
  // thread instead was measured: a warm userscale-churn pass fell from
  // 52 to 12 us, but the process's peak RSS rose from 87-91 MB to
  // 94-106 MB in 8 of 8 runs (glibc serves the cell's allocations from
  // the main arena instead of a per-thread one), so every cell keeps
  // running on a worker thread.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(jobs));
  for (int t = 0; t < jobs; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);

  progress.finish();
  summary_ = SweepSummary{};
  failures_.clear();
  summary_.total_cells = static_cast<int>(sweep.cells.size());
  summary_.jobs = jobs;
  summary_.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  for (const CellOutcome& out : outcomes) {
    if (out.attempts > 1) summary_.retries += out.attempts - 1;
    if (out.resumed) ++summary_.resumed;
    switch (out.status) {
      case CellStatus::kOk:
        if (out.from_cache) {
          ++summary_.from_cache;
        } else {
          summary_.sim_events += out.result.sim_events;
        }
        break;
      case CellStatus::kFailed:
        ++summary_.failed;
        failures_.push_back(*out.failure);
        break;
      case CellStatus::kSkipped:
        ++summary_.skipped;
        break;
    }
  }
  return outcomes;
}

}  // namespace ccas::sweep
