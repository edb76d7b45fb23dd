// The paper's two settings (Section 3.1):
//
//   EdgeScale: 100 Mbps bottleneck, 2-50 flows, 3 MB buffer.
//   CoreScale: 10 Gbps bottleneck, 1000-5000 flows, 375 MB buffer.
//
// Both buffers are ~1 BDP at a 200 ms max RTT, drop-tail. Ten
// sender/receiver pairs; flows distributed round-robin.
//
// Time-compression relative to the testbed (DESIGN.md): flows stagger
// their starts over `stagger`, the first `warmup` is discarded, and the
// measurement window is `measure` — with the same 1%-delta convergence
// detector the paper uses. REPRO_SCALE (env) scales bandwidth and flow
// count together, preserving per-flow BDP, for quick smoke runs;
// REPRO_WARMUP_SEC / REPRO_MEASURE_SEC override durations.
#pragma once

#include <string>

#include "src/net/topology.h"

namespace ccas {

enum class Setting { kEdgeScale, kCoreScale };

struct Scenario {
  Setting setting = Setting::kCoreScale;
  DumbbellConfig net;
  TimeDelta stagger = TimeDelta::seconds(2);
  TimeDelta warmup = TimeDelta::seconds(5);
  TimeDelta measure = TimeDelta::seconds(15);

  [[nodiscard]] static Scenario edge_scale();
  [[nodiscard]] static Scenario core_scale();
  [[nodiscard]] static Scenario for_setting(Setting setting);

  // Applies the REPRO_SCALE / REPRO_WARMUP_SEC / REPRO_MEASURE_SEC /
  // REPRO_STAGGER_SEC environment overrides; an unset REPRO_SCALE means
  // `default_scale`. Returns the scale factor applied (multiply flow counts
  // by it too). Throws std::invalid_argument on a value that is malformed,
  // has trailing junk, is not finite or not positive, or scales a rate,
  // buffer or duration past int64 or down to zero.
  double apply_env_overrides(double default_scale = 1.0);

  [[nodiscard]] std::string name() const {
    return setting == Setting::kEdgeScale ? "EdgeScale" : "CoreScale";
  }
};

// Scale a flow count by the REPRO_SCALE factor returned from
// apply_env_overrides (at least 1 flow; throws std::invalid_argument past
// INT_MAX).
[[nodiscard]] int scaled_flow_count(int count, double scale);

}  // namespace ccas
