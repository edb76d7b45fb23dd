#include "src/sweep/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/check/audit.h"
#include "src/harness/cli.h"
#include "src/harness/runner.h"
#include "src/sim/budget.h"
#include "src/sweep/spec_hash.h"
#include "src/util/logging.h"

namespace ccas::sweep {

namespace {

std::chrono::nanoseconds to_chrono(TimeDelta d) {
  return std::chrono::nanoseconds(d.ns());
}

FailureClass budget_failure_class(BudgetExceeded::Kind kind) {
  switch (kind) {
    case BudgetExceeded::Kind::kWallClock: return FailureClass::kBudgetWall;
    case BudgetExceeded::Kind::kSimEvents: return FailureClass::kBudgetEvents;
    case BudgetExceeded::Kind::kRssEstimate: return FailureClass::kBudgetRss;
  }
  return FailureClass::kException;
}

}  // namespace

// ---- failure taxonomy ----------------------------------------------------

const char* failure_class_name(FailureClass cls) {
  switch (cls) {
    case FailureClass::kException: return "exception";
    case FailureClass::kAuditViolation: return "audit-violation";
    case FailureClass::kBudgetWall: return "budget-wall-clock";
    case FailureClass::kBudgetEvents: return "budget-events";
    case FailureClass::kBudgetRss: return "budget-rss";
    case FailureClass::kCacheIo: return "cache-io";
    case FailureClass::kDeterminism: return "determinism-violation";
  }
  return "unknown";
}

std::optional<FailureClass> failure_class_from_name(std::string_view name) {
  for (const FailureClass cls :
       {FailureClass::kException, FailureClass::kAuditViolation,
        FailureClass::kBudgetWall, FailureClass::kBudgetEvents,
        FailureClass::kBudgetRss, FailureClass::kCacheIo,
        FailureClass::kDeterminism}) {
    if (name == failure_class_name(cls)) return cls;
  }
  return std::nullopt;
}

bool failure_is_transient(FailureClass cls) {
  return cls == FailureClass::kCacheIo;
}

bool failure_is_budget(FailureClass cls) {
  return cls == FailureClass::kBudgetWall || cls == FailureClass::kBudgetEvents ||
         cls == FailureClass::kBudgetRss;
}

int failure_exit_code(const std::vector<FailureClass>& classes) {
  // The codes rank in numeric order: the smallest nonzero one wins.
  int code = 0;
  for (const FailureClass cls : classes) {
    const int c = failure_is_budget(cls) ? 3 : failure_is_transient(cls) ? 4 : 2;
    if (code == 0 || c < code) code = c;
  }
  return code;
}

TimeDelta retry_backoff(int attempt) {
  return TimeDelta::millis(10LL << (std::clamp(attempt, 1, 5) - 1));
}

// ---- wall-clock watchdog -------------------------------------------------

CellWatchdog::CellWatchdog(TimeDelta timeout, std::atomic<bool>* expired) {
  if (timeout <= TimeDelta::zero() || expired == nullptr) return;
  thread_ = std::thread([this, timeout, expired] {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, to_chrono(timeout), [this] { return disarmed_; })) {
      return;  // cell finished in time
    }
    expired->store(true, std::memory_order_relaxed);
  });
}

CellWatchdog::~CellWatchdog() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    disarmed_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

// ---- fault injection (test-only) -----------------------------------------

const char* injected_fault_name(InjectedFault f) {
  switch (f) {
    case InjectedFault::kThrow: return "throw";
    case InjectedFault::kAudit: return "audit";
    case InjectedFault::kHang: return "hang";
    case InjectedFault::kEvents: return "events";
    case InjectedFault::kRss: return "rss";
    case InjectedFault::kCacheIo: return "cacheio";
  }
  return "unknown";
}

std::vector<FaultInjection> parse_fault_injections(std::string_view env_value) {
  std::vector<FaultInjection> out;
  size_t start = 0;
  while (start <= env_value.size()) {
    size_t end = env_value.find(';', start);
    if (end == std::string_view::npos) end = env_value.size();
    const std::string_view entry = env_value.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    // "<cell>:<class>[:<count>]" — split from the right: cell names may
    // themselves contain ':' but classes and counts never do.
    FaultInjection inj;
    size_t cls_end = entry.size();
    const size_t last_colon = entry.rfind(':');
    if (last_colon == std::string_view::npos) {
      throw std::invalid_argument("CCAS_FAIL_CELL entry '" + std::string(entry) +
                                  "' wants <cell>:<class>[:<count>]");
    }
    const std::string_view last_field = entry.substr(last_colon + 1);
    bool last_is_count = !last_field.empty();
    for (const char c : last_field) last_is_count = last_is_count && c >= '0' && c <= '9';
    size_t cls_start;
    if (last_is_count) {
      inj.count = std::atoi(std::string(last_field).c_str());
      if (inj.count <= 0) {
        throw std::invalid_argument("CCAS_FAIL_CELL count must be >= 1 in '" +
                                    std::string(entry) + "'");
      }
      cls_end = last_colon;
      const size_t cls_colon = entry.rfind(':', last_colon - 1);
      if (cls_colon == std::string_view::npos) {
        throw std::invalid_argument("CCAS_FAIL_CELL entry '" + std::string(entry) +
                                    "' wants <cell>:<class>[:<count>]");
      }
      cls_start = cls_colon + 1;
    } else {
      cls_start = last_colon + 1;
    }
    const std::string_view cls_name = entry.substr(cls_start, cls_end - cls_start);
    inj.cell = std::string(entry.substr(0, cls_start - 1));
    if (inj.cell.empty()) {
      throw std::invalid_argument("CCAS_FAIL_CELL entry '" + std::string(entry) +
                                  "' has an empty cell name");
    }
    bool known = false;
    for (const InjectedFault f :
         {InjectedFault::kThrow, InjectedFault::kAudit, InjectedFault::kHang,
          InjectedFault::kEvents, InjectedFault::kRss, InjectedFault::kCacheIo}) {
      if (cls_name == injected_fault_name(f)) {
        inj.fault = f;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("CCAS_FAIL_CELL unknown fault class '" +
                                  std::string(cls_name) +
                                  "' (want throw|audit|hang|events|rss|cacheio)");
    }
    out.push_back(std::move(inj));
  }
  return out;
}

FaultPlan::FaultPlan(std::vector<FaultInjection> injections)
    : injections_(std::move(injections)) {}

FaultPlan FaultPlan::from_env() {
  const char* v = std::getenv("CCAS_FAIL_CELL");
  if (v == nullptr || v[0] == '\0') return FaultPlan{};
  return FaultPlan(parse_fault_injections(v));
}

std::optional<InjectedFault> FaultPlan::next(const std::string& cell) {
  std::lock_guard<std::mutex> lock(mu_);
  for (FaultInjection& inj : injections_) {
    if (inj.cell == cell && inj.count > 0) {
      --inj.count;
      return inj.fault;
    }
  }
  return std::nullopt;
}

void execute_injected_fault(InjectedFault fault, const std::atomic<bool>* cancel) {
  switch (fault) {
    case InjectedFault::kThrow:
      throw std::runtime_error("injected fault: throw");
    case InjectedFault::kAudit:
      throw check::AuditViolationError(
          "injected fault: audit violation (1 violation, conservation.packets)");
    case InjectedFault::kEvents:
      throw BudgetExceeded(BudgetExceeded::Kind::kSimEvents,
                           "injected fault: simulated-event budget exceeded");
    case InjectedFault::kRss:
      throw BudgetExceeded(BudgetExceeded::Kind::kRssEstimate,
                           "injected fault: estimated RSS over ceiling");
    case InjectedFault::kCacheIo:
      throw CacheIoError("injected fault: cache write failed (ENOSPC)");
    case InjectedFault::kHang: {
      // Behave like a hung cell as observed by the supervisor: make no
      // progress until the watchdog cancels us. The 5 s cap keeps a hang
      // injected without a watchdog from stalling a test run forever.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (std::chrono::steady_clock::now() < deadline) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          throw BudgetExceeded(BudgetExceeded::Kind::kWallClock,
                               "injected hang cancelled by the watchdog");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw std::runtime_error(
          "injected hang: no watchdog fired within 5s (set --cell-timeout)");
    }
  }
}

// ---- the supervised cell attempt -----------------------------------------

SupervisedCell run_supervised_cell(const SweepCell& cell, uint64_t spec_hash,
                                   const CellSupervision& sup, FaultPlan& faults,
                                   const CellAttemptHooks& hooks,
                                   std::atomic<bool>* cancel,
                                   const std::atomic<bool>* stop) {
  SupervisedCell out;
  for (;;) {
    ++out.attempts;
    out.failure.reset();
    out.error = nullptr;
    auto fail = [&](FailureClass cls, const std::exception& e) {
      out.error = std::current_exception();
      out.failure = CellFailure{cell.name, cls, e.what(), spec_hash, out.attempts};
    };
    try {
      if (!out.hit) {
        if (auto stored = hooks.lookup()) {
          out.result = std::move(*stored);
          out.hit = true;
        }
      }
      if (!out.hit) {
        // Budget scope: the attempt's token and watchdog live exactly as
        // long as this simulation; the watchdog joins (in its destructor)
        // before the token leaves scope.
        std::atomic<bool> own_cancel{false};
        std::atomic<bool>* token = cancel;
        if (!token && sup.cell_timeout > TimeDelta::zero()) token = &own_cancel;
        SimBudget budget;
        budget.cancel = token;
        budget.max_events = sup.max_cell_events;
        budget.max_rss_bytes = sup.max_cell_rss_bytes;
        CellWatchdog watchdog(sup.cell_timeout, token);
        if (!faults.empty()) {
          if (auto f = faults.next(cell.name)) {
            out.injected = f;
            execute_injected_fault(*f, token);
          }
        }
        out.result = run_experiment(cell.spec, budget.any() ? &budget : nullptr);
      }
      hooks.persist(out.result, out.hit, out.attempts);
    } catch (const BudgetExceeded& e) {
      fail(budget_failure_class(e.kind()), e);
    } catch (const check::AuditViolationError& e) {
      fail(FailureClass::kAuditViolation, e);
    } catch (const CacheIoError& e) {
      fail(FailureClass::kCacheIo, e);
    } catch (const std::exception& e) {
      fail(FailureClass::kException, e);
    }
    const bool retry = out.failure && failure_is_transient(out.failure->cls) &&
                       out.attempts <= sup.retries &&
                       !(stop != nullptr && stop->load(std::memory_order_relaxed));
    if (!retry) break;
    if (hooks.on_retry) hooks.on_retry(*out.failure);
    std::this_thread::sleep_for(to_chrono(retry_backoff(out.attempts)));
  }
  if (out.failure) out.result = ExperimentResult{};
  return out;
}

// ---- quarantine (minimal repro) ------------------------------------------

std::string write_quarantine_file(const std::string& dir, const SweepCell& cell,
                                  const CellFailure& failure,
                                  const CellSupervision& sup,
                                  std::optional<InjectedFault> injected) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && !std::filesystem::is_directory(dir)) {
    log_warn("sweep quarantine: cannot create %s: %s", dir.c_str(),
             ec.message().c_str());
    return "";
  }
  const std::string path = dir + "/" + cache_key_hex(failure.spec_hash) + ".repro";

  const SpecCliRendering cli = spec_to_cli(cell.spec);
  std::string replay;
  if (injected) {
    // Single-cell replays through ccas_run name their cell "seed=<n>", so
    // the injection env is rewritten to match.
    replay += "CCAS_FAIL_CELL='seed=" + std::to_string(cell.spec.seed) + ":" +
              injected_fault_name(*injected) + "' ";
  }
  replay += "ccas_run";
  for (const std::string& arg : cli.args) replay += " " + arg;
  // Budget flags so budget-class failures replay with the same ceilings.
  char buf[64];
  if (sup.cell_timeout > TimeDelta::zero()) {
    std::snprintf(buf, sizeof(buf), " --cell-timeout=%.17g", sup.cell_timeout.sec());
    replay += buf;
  }
  if (sup.max_cell_events != 0) {
    std::snprintf(buf, sizeof(buf), " --cell-events=%llu",
                  static_cast<unsigned long long>(sup.max_cell_events));
    replay += buf;
  }
  if (sup.max_cell_rss_bytes > 0) {
    std::snprintf(buf, sizeof(buf), " --cell-rss=%.17g",
                  static_cast<double>(sup.max_cell_rss_bytes) / 1e6);
    replay += buf;
  }

  std::string what_line = failure.what;
  const size_t nl = what_line.find('\n');
  if (nl != std::string::npos) what_line.resize(nl);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("sweep quarantine: cannot write %s", path.c_str());
    return "";
  }
  out << "# ccas sweep quarantine record\n"
      << "# cell: " << failure.cell << "\n"
      << "# spec-hash: " << cache_key_hex(failure.spec_hash) << "\n"
      << "# class: " << failure_class_name(failure.cls) << "\n"
      << "# attempts: " << failure.attempts << "\n"
      << "# error: " << what_line << "\n";
  for (const std::string& note : cli.notes) {
    out << "# note: " << note << "\n";
  }
  out << replay << "\n";
  out.flush();
  if (!out.good()) {
    log_warn("sweep quarantine: short write to %s", path.c_str());
    return "";
  }
  return path;
}

}  // namespace ccas::sweep
