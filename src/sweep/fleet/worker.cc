#include "src/sweep/fleet/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep::fleet {

namespace {

// Renews the lease every `interval_ms` on a background thread for as long
// as the guarded compute runs. A renewal that finds the lease reclaimed
// sets both flags: `lost` tells the worker to abandon the cell, `cancel`
// makes the simulator's cooperative budget check abort the in-flight
// attempt at its next poll — a worker that lost its cell stops burning
// CPU on a result its new holder is already computing.
class Heartbeat {
 public:
  Heartbeat(LeaseDir& leases, Lease lease, uint64_t interval_ms,
            std::atomic<bool>* lost, std::atomic<bool>* cancel)
      : thread_([this, &leases, lease = std::move(lease), interval_ms, lost,
                 cancel] {
          std::unique_lock<std::mutex> lock(mu_);
          for (;;) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                             [this] { return stopped_; })) {
              return;
            }
            lock.unlock();
            const bool renewed = leases.renew(lease);
            lock.lock();
            if (stopped_) return;
            if (!renewed) {
              lost->store(true, std::memory_order_relaxed);
              cancel->store(true, std::memory_order_relaxed);
              return;
            }
          }
        }) {}

  ~Heartbeat() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace

FleetWorker::FleetWorker(FleetOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::invalid_argument("fleet: store directory must not be empty");
  }
  if (options_.lease_ttl_ms == 0) {
    throw std::invalid_argument("fleet: lease TTL must be positive");
  }
  if (options_.heartbeat_ms == 0) {
    options_.heartbeat_ms = std::max<uint64_t>(1, options_.lease_ttl_ms / 3);
  }
  if (options_.heartbeat_ms >= options_.lease_ttl_ms) {
    throw std::invalid_argument(
        "fleet: heartbeat interval must be shorter than the lease TTL "
        "(a heartbeat that fires after expiry cannot keep the lease)");
  }
  if (options_.worker_id.empty()) {
    options_.worker_id = "w" + std::to_string(::getpid());
  }
  for (const char c : options_.worker_id) {
    // The id lands in lease filenames and journal fields.
    if (c == '/' || c == ' ' || c == '\n' || c == '\t') {
      throw std::invalid_argument(
          "fleet: worker id must not contain '/', whitespace, or newlines");
    }
  }
}

FleetSummary FleetWorker::run(const SweepSpec& sweep) {
  const auto start = std::chrono::steady_clock::now();
  FleetSummary summary;

  FleetStore store(options_.dir, sweep, options_.cache_salt);
  LeaseDir leases(store.lease_dir(), options_.worker_id, options_.lease_ttl_ms,
                  options_.clock);
  FaultPlan faults = FaultPlan::from_env();
  summary.total_cells = static_cast<int>(store.grid().size());

  // Fail records that predate this worker are re-attempted once each —
  // joining a fleet is this worker's analogue of a --resume, and resume
  // retries journaled failures. `handled` keys the bound; it also covers
  // failures we committed ourselves (no point re-running our own work).
  std::unordered_set<uint64_t> handled;

  auto note = [&](const SweepCell& cell, const std::string& what) {
    if (!options_.progress) return;
    std::fprintf(stderr, "[ccas_fleet %s] cell %s: %s\n", options_.worker_id.c_str(),
                 cell.name.c_str(), what.c_str());
  };
  // Computes and commits one leased cell; false if the lease was lost and
  // nothing was committed.
  auto work_cell = [&](const JobCell& jcell, const SweepCell& cell,
                       const Lease& lease) {
    std::atomic<bool> cancelled{false};
    std::atomic<bool> lost{false};
    Heartbeat heartbeat(leases, lease, options_.heartbeat_ms, &lost,
                        &cancelled);

    // A stored result is adopted: another worker stored it but died before
    // journaling it (the commit order is store-then-journal), and the bytes
    // are identical either way. A computed result must be stored before the
    // journal may name it.
    auto lookup = [&] { return store.results().load(jcell.spec_hash); };
    auto persist = [&](const ExperimentResult& result, bool hit, int /*attempt*/) {
      if (!hit && !store.results().store(jcell.spec_hash, result)) {
        throw CacheIoError("fleet: cannot store result for " +
                           cache_key_hex(jcell.spec_hash) + " under " +
                           store.manifest().results_dir());
      }
    };
    // The heartbeat's loss and the watchdog share one cancel token.
    const SupervisedCell run = run_supervised_cell(
        cell, jcell.spec_hash, options_.supervision, faults,
        {std::ref(lookup), std::ref(persist), {}}, &cancelled, &lost);
    heartbeat.stop();

    // The fencing check: commit only while the on-disk lease still equals
    // the handle we claimed. A worker resurrected after its TTL finds a
    // different (worker, fence) pair — or no lease — and walks away.
    if (lost.load(std::memory_order_relaxed) || !leases.still_held(lease)) {
      ++summary.lost_leases;
      note(cell, "lease lost, abandoned");
      return false;
    }

    if (!run.failure) {
      store.manifest().record_ok(jcell.spec_hash, run.attempts,
                                 fnv1a64(serialize_result(run.result)),
                                 options_.worker_id, lease.fence);
      ++(run.hit ? summary.adopted : summary.computed);
      note(cell, run.hit ? "ok (adopted from results store)" : "ok");
    } else {
      try {
        store.manifest().record_failure(*run.failure, options_.worker_id);
      } catch (const std::exception& e) {
        log_warn("fleet manifest: %s", e.what());
      }
      (void)write_quarantine_file(store.quarantine_dir(), cell, *run.failure,
                                  options_.supervision, run.injected);
      note(cell, std::string("FAILED [") + failure_class_name(run.failure->cls) + "]");
    }
    leases.release(lease);
    return true;
  };

  uint64_t last_progress_ms = leases.now_ms();
  size_t last_covered = 0;
  for (;;) {
    store.manifest().reload();
    bool progressed = false;
    for (size_t i = 0; i < store.grid().size(); ++i) {
      const JobCell& jcell = store.grid()[i];
      const auto rec = store.manifest().lookup(jcell.spec_hash);
      if (rec) {
        if (rec->ok) continue;
        // Determinism violations are sticky (manifest.h) — re-running
        // cannot settle which digest was right. Other journaled failures
        // are eligible for one re-attempt per worker.
        if (rec->cls == FailureClass::kDeterminism) continue;
        if (handled.count(jcell.spec_hash)) continue;
      }
      auto lease = leases.claim(jcell.spec_hash);
      if (!lease) continue;
      if (rec) ++summary.reattempts;
      handled.insert(jcell.spec_hash);
      if (work_cell(jcell, sweep.cells[i], *lease)) progressed = true;
    }

    store.manifest().reload();
    size_t covered = 0;
    for (const JobCell& jcell : store.grid()) {
      const auto rec = store.manifest().lookup(jcell.spec_hash);
      if (!rec) continue;
      // A non-sticky failure record counts as covered only once this
      // worker has spent its re-attempt on it (or wrote it itself);
      // otherwise the next pass claims it.
      if (rec->ok || rec->cls == FailureClass::kDeterminism ||
          handled.count(jcell.spec_hash)) {
        ++covered;
      }
    }
    const uint64_t now = leases.now_ms();
    if (covered == store.grid().size()) {
      summary.complete = true;
      break;
    }
    if (progressed || covered != last_covered) {
      last_progress_ms = now;
      last_covered = covered;
    } else if (options_.stall_timeout_ms > 0 &&
               now - last_progress_ms >= options_.stall_timeout_ms) {
      log_warn("fleet worker %s: no progress for %llu ms with %zu cells "
               "uncovered; giving up (exit 5)",
               options_.worker_id.c_str(),
               static_cast<unsigned long long>(now - last_progress_ms),
               store.grid().size() - covered);
      break;
    }
    // Uncovered cells are leased by other workers (or waiting out a dead
    // worker's TTL): sleep a heartbeat and look again.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<uint64_t>(options_.heartbeat_ms,
                                                     200)));
  }

  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    if (!rec) continue;
    if (rec->ok) ++summary.ok;
    else ++summary.failed;
  }
  summary.report = render_fleet_report(store);
  summary.exit_code = fleet_exit_code(store);
  summary.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return summary;
}

std::string render_fleet_report(FleetStore& store) {
  std::string out;
  int ok = 0;
  int failed = 0;
  int pending = 0;
  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    out += "cell " + jcell.name + " [" + cache_key_hex(jcell.spec_hash) + "]: ";
    if (!rec) {
      out += "pending\n";
      ++pending;
    } else if (rec->ok) {
      out += "ok";
      if (rec->digest != 0) out += " digest=" + cache_key_hex(rec->digest);
      out += "\n";
      ++ok;
    } else {
      out += std::string("FAILED [") + failure_class_name(rec->cls) + "] " +
             rec->what + "\n";
      ++failed;
    }
  }
  out += "fleet job: " + std::to_string(store.grid().size()) + " cells, " +
         std::to_string(ok) + " ok, " + std::to_string(failed) + " failed, " +
         std::to_string(pending) + " pending\n";
  return out;
}

int fleet_exit_code(FleetStore& store) {
  std::vector<FailureClass> failures;
  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    if (!rec) return 5;  // an incomplete job outranks every failure class
    if (!rec->ok) failures.push_back(rec->cls);
  }
  return failure_exit_code(failures);
}

}  // namespace ccas::sweep::fleet
