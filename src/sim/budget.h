// Cooperative per-run resource budget for the simulation kernel.
//
// A SimBudget is owned by whoever drives the simulation (the sweep
// executor's supervision layer, a test) and installed on a Simulator with
// set_budget(). The event loop then checks it cooperatively: the
// simulated-event ceiling is enforced exactly (compared after every
// dispatch), while the cancellation token (set by a wall-clock watchdog
// thread) and the peak-RSS *estimate* are polled every 1024 events — they
// are inherently approximate, so the cheaper cadence costs nothing.
//
// Budgets are observational until they trip: they never alter scheduling,
// RNG draws, or any other simulation state, so a run under a budget it
// does not exceed is byte-identical to an unbudgeted run. A tripped
// budget throws BudgetExceeded out of run()/run_until(); the simulation
// is then abandoned, never resumed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace ccas {

// Thrown out of Simulator::run()/run_until() when a budget trips.
class BudgetExceeded : public std::runtime_error {
 public:
  enum class Kind {
    kWallClock,    // cancellation token set (watchdog timeout)
    kSimEvents,    // simulated-event ceiling reached
    kRssEstimate,  // estimated peak memory over the ceiling
  };

  BudgetExceeded(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

struct SimBudget {
  // Cancellation token: when non-null and set, the loop throws
  // BudgetExceeded(kWallClock) at the next poll. The pointee must outlive
  // every run()/run_until() call made while this budget is installed;
  // it is written by another thread (the watchdog), hence atomic.
  const std::atomic<bool>* cancel = nullptr;

  // Hard ceiling on Simulator::events_processed(); 0 = unlimited.
  uint64_t max_events = 0;

  // Ceiling on the estimated resident-set size; 0 = unlimited. The
  // estimate is pending_events * kPendingEventRssBytes plus whatever
  // extra_rss_bytes reports (the harness adds its log/trace footprint).
  // It deliberately over-approximates container overhead: the point is
  // to stop a runaway cell well before the OOM killer does, not to
  // meter memory precisely.
  int64_t max_rss_bytes = 0;
  std::function<int64_t()> extra_rss_bytes;

  // Rough per-pending-event cost: the Event itself (40 B) plus amortized
  // timing-wheel / overflow-heap bookkeeping.
  static constexpr int64_t kPendingEventRssBytes = 48;

  [[nodiscard]] bool any() const {
    return cancel != nullptr || max_events != 0 || max_rss_bytes > 0;
  }
};

}  // namespace ccas
