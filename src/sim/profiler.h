// Always-on lightweight simulation profiler.
//
// A SimProfile lives inside each Simulator and is updated with plain
// counter increments on the hot paths (event dispatch, scheduler tier
// placement, timer wakeups) — cheap enough to leave enabled in every run.
// run()/run_until() accumulate wall-clock and simulated time, so the
// profile can report events/sec and wall-clock per simulated second, the
// two numbers the CoreScale reproduction budget is written in. Exposed via
// `ccas_run --perf` and the `ccas_perf` microbenchmark.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ccas {

struct SimProfile {
  // Dispatch counters, by event tag (tags >= kMaxTag share the last
  // bucket; the simulator's handlers use small tags).
  static constexpr size_t kMaxTag = 8;
  uint64_t events_dispatched = 0;
  std::array<uint64_t, kMaxTag + 1> events_by_tag{};

  // Scheduler tier placement (timing-wheel internals).
  uint64_t pushes_due = 0;       // landed in the current-slot heap
  uint64_t pushes_wheel = 0;     // landed in a wheel slot
  uint64_t pushes_overflow = 0;  // beyond the wheels' horizon
  uint64_t wheel_cascades = 0;   // coarse slots re-filed into finer levels
  uint64_t overflow_drains = 0;  // overflow pages pulled back into the wheels

  // Pending-set gauge: the largest EventQueue::size() reached, and the
  // size sampled after every kPendingSampleEvery-th dispatch (mean =
  // pending_sample_sum / pending_samples). Observational only — never
  // serialized.
  static constexpr uint64_t kPendingSampleEvery = 1024;
  uint64_t pending_max = 0;
  uint64_t pending_samples = 0;
  uint64_t pending_sample_sum = 0;

  // Timer wakeup accounting (the lazy re-arm cost, satellite of the
  // scheduler rework): stale = superseded generation, chase = entry fired
  // before a later re-armed deadline, coalesced = earlier re-arms absorbed
  // into an existing entry within the configured slack.
  uint64_t timer_stale_wakeups = 0;
  uint64_t timer_chase_wakeups = 0;
  uint64_t timer_coalesced_rearms = 0;

  // Impairment-stage activity (ImpairedLink): packets dropped by random
  // loss / GE loss / link-down faults, duplicate copies created, and
  // packets held for a jitter/reorder delay.
  uint64_t impair_drops = 0;
  uint64_t impair_dups = 0;
  uint64_t impair_delays = 0;

  // AQM qdisc activity (src/net/qdisc/): packets dropped after admission
  // (CoDel-family head drops, FQ-CoDel fat-flow eviction) and ECN CE
  // marks set instead of drops. Zero under plain drop-tail.
  uint64_t qdisc_head_drops = 0;
  uint64_t qdisc_marks = 0;

  // Global heap allocations (operator new, counted by
  // src/util/alloc_counter.cc) performed while inside run()/run_until().
  // Steady-state bulk transfer and churn arrivals are designed to keep the
  // per-event rate at zero once pools/rings reach their high-water sets;
  // the perf gate enforces that (DESIGN.md §12).
  uint64_t heap_allocs = 0;

  // Wall clock, accumulated across run()/run_until() calls.
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;

  // Always zero: every run is serial. They stay only because perfbench/
  // reads them for its core-mix-sh3 workload, and go when a benchmark
  // change retires that workload.
  uint64_t shard_domains = 0;
  uint64_t shard_windows = 0;  // conservative windows executed
  double shard_core_wall_seconds = 0.0;
  double shard_edge_wall_seconds = 0.0;

  [[nodiscard]] uint64_t timer_wasted_wakeups() const {
    return timer_stale_wakeups + timer_chase_wakeups;
  }
  [[nodiscard]] double events_per_wall_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events_dispatched) / wall_seconds
                              : 0.0;
  }
  [[nodiscard]] double wall_sec_per_sim_sec() const {
    return sim_seconds > 0.0 ? wall_seconds / sim_seconds : 0.0;
  }
  [[nodiscard]] double pending_mean() const {
    return pending_samples > 0 ? static_cast<double>(pending_sample_sum) /
                                     static_cast<double>(pending_samples)
                               : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events_dispatched > 0
               ? static_cast<double>(heap_allocs) /
                     static_cast<double>(events_dispatched)
               : 0.0;
  }

  // Multi-line human-readable report (the `--perf` output).
  [[nodiscard]] std::string summary() const;
};

}  // namespace ccas
