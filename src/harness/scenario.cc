#include "src/harness/scenario.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ccas {

Scenario Scenario::edge_scale() {
  Scenario s;
  s.setting = Setting::kEdgeScale;
  s.net.bottleneck_rate = DataRate::mbps(100);
  // ~1 BDP at 200 ms: 100 Mbps * 200 ms / 8 = 2.5 MB; the paper uses 3 MB.
  s.net.buffer_bytes = 3LL * 1000 * 1000;
  s.net.num_pairs = 10;
  return s;
}

Scenario Scenario::core_scale() {
  Scenario s;
  s.setting = Setting::kCoreScale;
  s.net.bottleneck_rate = DataRate::gbps(10);
  // ~1 BDP at 200 ms: 10 Gbps * 200 ms / 8 = 250 MB; the paper uses 375 MB.
  s.net.buffer_bytes = 375LL * 1000 * 1000;
  s.net.num_pairs = 10;
  return s;
}

Scenario Scenario::for_setting(Setting setting) {
  return setting == Setting::kEdgeScale ? edge_scale() : core_scale();
}

namespace {

// A REPRO_* value: a finite positive decimal with nothing after it. A typo
// must not silently run a different experiment (REPRO_SCALE=abc used to
// run the paper's full scale, at ~25x the cost of the default).
double env_positive(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed =
      std::isspace(static_cast<unsigned char>(v[0])) != 0 ? 0.0 : std::strtod(v, &end);
  if (end == nullptr || end == v || *end != '\0' || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    throw std::invalid_argument(std::string(name) +
                                " must be a positive finite number (got '" + v + "')");
  }
  return parsed;
}

// x truncated to int64, refusing values the cast cannot hold (casting an
// out-of-range double is undefined behaviour).
int64_t truncated(const char* name, double x) {
  if (!(x < 0x1p63)) throw std::invalid_argument(std::string(name) + " is out of range");
  return static_cast<int64_t>(x);
}

TimeDelta env_duration(const char* name, TimeDelta fallback) {
  if (std::getenv(name) == nullptr) return fallback;
  const TimeDelta d = TimeDelta::nanos(truncated(name, env_positive(name, 0.0) * 1e9));
  if (d <= TimeDelta::zero()) {
    throw std::invalid_argument(std::string(name) + " rounds to zero nanoseconds");
  }
  return d;
}

}  // namespace

double Scenario::apply_env_overrides(double default_scale) {
  const double scale = env_positive("REPRO_SCALE", default_scale);
  if (scale != 1.0) {
    const double bps = static_cast<double>(net.bottleneck_rate.bits_per_sec()) * scale;
    net.bottleneck_rate = DataRate::bps(truncated("REPRO_SCALE", bps));
    if (net.bottleneck_rate.is_zero()) {
      throw std::invalid_argument("REPRO_SCALE rounds the bottleneck rate to zero");
    }
    const double bytes = static_cast<double>(net.buffer_bytes) * scale;
    net.buffer_bytes =
        std::max<int64_t>(truncated("REPRO_SCALE", bytes), 16 * kDataPacketBytes);
  }
  warmup = env_duration("REPRO_WARMUP_SEC", warmup);
  measure = env_duration("REPRO_MEASURE_SEC", measure);
  stagger = env_duration("REPRO_STAGGER_SEC", stagger);
  return scale;
}

int scaled_flow_count(int count, double scale) {
  const double scaled = std::round(count * scale);
  if (!(scaled < INT_MAX)) throw std::invalid_argument("scaled flow count overflows int");
  return std::max(1, static_cast<int>(scaled));
}

}  // namespace ccas
