#include "src/sim/profiler.h"

#include <cstdarg>
#include <cstdio>

namespace ccas {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string SimProfile::summary() const {
  std::string out;
  out.reserve(512);
  appendf(out,
          "perf: %llu events in %.3fs wall (%.0f events/sec, %.3fs wall per "
          "sim-sec)\n",
          static_cast<unsigned long long>(events_dispatched), wall_seconds,
          events_per_wall_sec(), wall_sec_per_sim_sec());
  out += "  by tag:";
  for (size_t t = 0; t < events_by_tag.size(); ++t) {
    if (events_by_tag[t] == 0) continue;
    appendf(out, " %zu%s=%llu", t, t == kMaxTag ? "+" : "",
            static_cast<unsigned long long>(events_by_tag[t]));
  }
  out += "\n";
  appendf(out,
          "  scheduler: due=%llu wheel=%llu overflow=%llu cascades=%llu "
          "drains=%llu\n",
          static_cast<unsigned long long>(pushes_due),
          static_cast<unsigned long long>(pushes_wheel),
          static_cast<unsigned long long>(pushes_overflow),
          static_cast<unsigned long long>(wheel_cascades),
          static_cast<unsigned long long>(overflow_drains));
  appendf(out, "  pending set: max=%llu mean=%.0f (%llu samples)\n",
          static_cast<unsigned long long>(pending_max), pending_mean(),
          static_cast<unsigned long long>(pending_samples));
  appendf(out, "  heap: %llu allocations in-loop (%.6f per event)\n",
          static_cast<unsigned long long>(heap_allocs), allocs_per_event());
  appendf(out,
          "  timers: wasted wakeups=%llu (stale=%llu chase=%llu), "
          "coalesced re-arms=%llu\n",
          static_cast<unsigned long long>(timer_wasted_wakeups()),
          static_cast<unsigned long long>(timer_stale_wakeups),
          static_cast<unsigned long long>(timer_chase_wakeups),
          static_cast<unsigned long long>(timer_coalesced_rearms));
  if (impair_drops != 0 || impair_dups != 0 || impair_delays != 0) {
    appendf(out, "  impairments: drops=%llu dups=%llu delayed=%llu\n",
            static_cast<unsigned long long>(impair_drops),
            static_cast<unsigned long long>(impair_dups),
            static_cast<unsigned long long>(impair_delays));
  }
  if (qdisc_head_drops != 0 || qdisc_marks != 0) {
    appendf(out, "  qdisc: head drops=%llu ECN marks=%llu\n",
            static_cast<unsigned long long>(qdisc_head_drops),
            static_cast<unsigned long long>(qdisc_marks));
  }
  if (shard_domains != 0) {
    appendf(out,
            "  shards: %llu domains, %llu windows, core %.3fs / edge %.3fs "
            "wall\n",
            static_cast<unsigned long long>(shard_domains),
            static_cast<unsigned long long>(shard_windows),
            shard_core_wall_seconds, shard_edge_wall_seconds);
  }
  return out;
}

}  // namespace ccas
