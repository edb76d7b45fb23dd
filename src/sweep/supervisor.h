// Cell supervision for both cell runners, the sweep executor (executor.h)
// and the fleet worker (fleet/worker.h): failure taxonomy, deterministic
// retry/backoff, the per-cell wall-clock watchdog, test-only fault
// injection, the one supervised cell attempt loop (run_supervised_cell)
// and minimal-repro (quarantine) emission.
//
// The supervision contract (DESIGN.md §9):
//
//   * A failing cell never takes the sweep down (unless fail_fast): the
//     failure is captured as a structured CellFailure and the remaining
//     cells keep running.
//   * Failure classes split into deterministic (exception, audit
//     violation, budget blowouts — re-running the same spec reproduces
//     them, so retrying is wasted work and they quarantine immediately)
//     and transient (cache/manifest I/O — retried with bounded,
//     deterministic exponential backoff).
//   * Retries cannot change results: a cell's outcome is a pure function
//     of its spec, so a retry that succeeds is byte-identical to a
//     first-attempt success; the backoff schedule is fixed (no jitter) so
//     supervised runs are reproducible in wall-clock shape too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/sweep/sweep_spec.h"
#include "src/util/units.h"

namespace ccas::sweep {

// ---- failure taxonomy ----------------------------------------------------

enum class FailureClass {
  kException,       // deterministic: the cell threw (bad spec, logic error)
  kAuditViolation,  // deterministic: invariant auditor tripped (CCAS_CHECK)
  kBudgetWall,      // budget: wall-clock watchdog cancelled the cell
  kBudgetEvents,    // budget: simulated-event ceiling
  kBudgetRss,       // budget: estimated peak RSS ceiling
  kCacheIo,         // transient: result-cache/manifest I/O (ENOSPC, ...)
  kDeterminism,     // deterministic: two workers journaled the same spec
                    // hash with different result digests — the simulator
                    // is nondeterministic or the binaries differ
};

[[nodiscard]] const char* failure_class_name(FailureClass cls);
[[nodiscard]] std::optional<FailureClass> failure_class_from_name(
    std::string_view name);
// Transient classes are retried (with backoff); deterministic ones
// quarantine immediately — re-running the same spec reproduces them.
[[nodiscard]] bool failure_is_transient(FailureClass cls);
[[nodiscard]] bool failure_is_budget(FailureClass cls);

// One cell's terminal failure, kept alongside the partial results.
struct CellFailure {
  std::string cell;                           // cell name
  FailureClass cls = FailureClass::kException;
  std::string what;                           // exception message / report
  uint64_t spec_hash = 0;                     // canonical spec cache key
  int attempts = 1;                           // attempts consumed (>= 1)
};

// The exit code of a run whose terminal failures have these classes
// (tools/EXIT_CODES.md): 0 for none, else the most actionable kind wins —
// deterministic (2) over budget (3) over transient-exhausted (4).
[[nodiscard]] int failure_exit_code(const std::vector<FailureClass>& classes);

// Thrown by supervised cache/manifest writes whose failure must not be
// silently swallowed (resume integrity depends on them); classified as
// the transient kCacheIo and retried.
class CacheIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Deterministic exponential backoff before retry `attempt` (1-based count
// of attempts already made): 10ms, 20ms, 40ms, 80ms, then 160ms for every
// later retry. No jitter — supervised sweeps must be reproducible end to
// end.
[[nodiscard]] TimeDelta retry_backoff(int attempt);

// ---- wall-clock watchdog -------------------------------------------------

// Arms a one-shot timer on construction: if `timeout` elapses before
// destruction, `*expired` is set and the simulator's cooperative budget
// check turns it into BudgetExceeded(kWallClock) at the next poll.
// Destruction disarms and joins. A zero/negative timeout is inert (no
// thread is spawned), so callers need no conditionals.
class CellWatchdog {
 public:
  CellWatchdog(TimeDelta timeout, std::atomic<bool>* expired);
  ~CellWatchdog();
  CellWatchdog(const CellWatchdog&) = delete;
  CellWatchdog& operator=(const CellWatchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

// ---- fault injection (test-only) -----------------------------------------

// CCAS_FAIL_CELL syntax: "<cell>:<class>[:<count>][;<cell>:<class>...]".
// Classes: throw, audit, hang, events, rss, cacheio. `count` (default 1)
// is how many attempts of that cell fail before the injection is spent —
// "c:cacheio:2" with --retries=2 fails twice, then the third attempt
// succeeds, exercising the retry path end to end.
enum class InjectedFault { kThrow, kAudit, kHang, kEvents, kRss, kCacheIo };

[[nodiscard]] const char* injected_fault_name(InjectedFault f);

struct FaultInjection {
  std::string cell;
  InjectedFault fault = InjectedFault::kThrow;
  int count = 1;
};

// Throws std::invalid_argument on malformed syntax.
[[nodiscard]] std::vector<FaultInjection> parse_fault_injections(
    std::string_view env_value);

// Thread-safe per-attempt consumption of a parsed injection plan.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultInjection> injections);
  // Reads CCAS_FAIL_CELL; empty plan when unset.
  [[nodiscard]] static FaultPlan from_env();

  // The fault to inject into this attempt of `cell` (consuming one
  // count), or nullopt.
  [[nodiscard]] std::optional<InjectedFault> next(const std::string& cell);
  [[nodiscard]] bool empty() const { return injections_.empty(); }

 private:
  std::mutex mu_;
  std::vector<FaultInjection> injections_;
};

// Executes an injected fault at the top of a cell attempt: throws the
// exception the named class would produce. kHang blocks until `cancel`
// is set (the watchdog) and then throws BudgetExceeded(kWallClock), with
// a safety cap so a hang injected without a watchdog cannot stall a test
// run forever.
void execute_injected_fault(InjectedFault fault, const std::atomic<bool>* cancel);

// ---- the supervised cell attempt -----------------------------------------

// Per-cell budgets (all off by default) and the transient retry bound,
// shared by SweepOptions (executor.h) and FleetOptions (fleet/worker.h).
struct CellSupervision {
  // Wall-clock watchdog per cell attempt; zero disables.
  TimeDelta cell_timeout = TimeDelta::zero();
  // Simulated-event ceiling per cell attempt; 0 disables.
  uint64_t max_cell_events = 0;
  // Estimated-peak-RSS ceiling per cell attempt, bytes; 0 disables.
  int64_t max_cell_rss_bytes = 0;
  // Retries for transient failure classes (cache/manifest I/O), each after
  // retry_backoff. Deterministic classes never retry regardless.
  int retries = 2;
};

// What the callers of run_supervised_cell do differently. They pass their
// callables through std::ref, which std::function holds without allocating.
struct CellAttemptHooks {
  // A stored result for the cell (a cache hit, or a result another worker
  // stored), or nullopt to simulate it. Asked before each attempt until it
  // hits.
  std::function<std::optional<ExperimentResult>()> lookup;
  // Persists an attempt's result (`hit`: it came from lookup). Throws
  // CacheIoError when a write the caller cannot lose fails; the attempt
  // then fails as kCacheIo and is retried.
  std::function<void(const ExperimentResult& result, bool hit, int attempt)> persist;
  // Called before the backoff of each retry, if set.
  std::function<void(const CellFailure& failure)> on_retry;
};

struct SupervisedCell {
  ExperimentResult result;  // empty when failure is set
  bool hit = false;         // result came from CellAttemptHooks::lookup
  int attempts = 0;
  std::optional<CellFailure> failure;     // the terminal failure
  std::exception_ptr error;               // its original exception
  std::optional<InjectedFault> injected;  // last fault injected, for .repro
};

// Runs attempts of `cell` until one succeeds, one fails with a
// non-transient class, transient failures outlast sup.retries, or `*stop`
// is set. An attempt whose lookup misses consumes one CCAS_FAIL_CELL
// injection and simulates under sup's budgets with a CellWatchdog armed;
// every attempt then persists. Exceptions become CellFailures; the
// transient ones retry after retry_backoff.
//
// `cancel` is an external token the watchdog shares and every simulation
// polls (the fleet heartbeat sets it on lease loss). Without one, each
// attempt gets its own token, and an attempt with no budget at all runs
// unbudgeted (run_experiment gets nullptr).
[[nodiscard]] SupervisedCell run_supervised_cell(
    const SweepCell& cell, uint64_t spec_hash, const CellSupervision& sup,
    FaultPlan& faults, const CellAttemptHooks& hooks, std::atomic<bool>* cancel = nullptr,
    const std::atomic<bool>* stop = nullptr);

// ---- quarantine (minimal repro) ------------------------------------------

// Writes <dir>/<16-hex spec hash>.repro: a commented header (cell, class,
// attempts, error) plus the exact `ccas_run` command line (seed, spec
// flags, sup's budget flags, and the CCAS_FAIL_CELL env for an `injected`
// failure) that replays the failing cell as a one-cell sweep. Creates
// `dir` if missing; returns the path, or "" if the file could not be
// written (quarantine is best-effort: it must never mask the failure it
// documents).
[[nodiscard]] std::string write_quarantine_file(const std::string& dir,
                                                const SweepCell& cell,
                                                const CellFailure& failure,
                                                const CellSupervision& sup,
                                                std::optional<InjectedFault> injected);

}  // namespace ccas::sweep
