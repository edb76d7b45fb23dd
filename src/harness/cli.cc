#include "src/harness/cli.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/cca/cca.h"

namespace ccas {

namespace {

using Str = const std::string&;
using Spec = const ExperimentSpec&;
using Cli = CliOptions;
using Fleet = FleetCliOptions;
using Notes = std::vector<std::string>;

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

// Splits "a,b,c" into pieces.
std::vector<std::string> split(Str s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// Appends `item` to a `sep`-separated list.
void add(std::string& list, Str item, char sep = ',') {
  if (!list.empty()) list += sep;
  list += item;
}

// ---- Value kinds ------------------------------------------------------------
//
// Every flag value goes through these helpers. They reject empty text,
// leading blanks, trailing junk, non-finite numbers and out-of-range values,
// and check that a scaled value fits int64 before the truncating cast that
// TimeDelta::seconds_f and DataRate::bps_f perform (casting an out-of-range
// double is undefined behaviour).

enum class Min { kAny, kZero, kPositive };

bool blank_start(Str text) {
  return text.empty() || std::isspace(static_cast<unsigned char>(text[0])) != 0;
}

double number(Str what, Str text, Min min = Min::kAny) {
  char* end = nullptr;
  const double v = blank_start(text) ? 0.0 : std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
    fail("bad numeric value for " + what + ": '" + text + "'");
  }
  if (min == Min::kZero && v < 0.0) fail(what + " must be >= 0");
  if (min == Min::kPositive && v <= 0.0) fail(what + " must be positive");
  return v;
}

// Counts, seeds and byte sizes take strict integers: "2.5", "1e3" or an
// overflowing value silently becoming a worker count, a different RNG seed
// or a 2-byte buffer is a misconfiguration a sweep cannot detect.
int64_t integer(Str what, Str text, int64_t lo, int64_t hi = INT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const long long v = blank_start(text) ? 0 : std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || end == text.c_str() || *end != '\0' || errno == ERANGE) {
    fail("bad integer value for " + what + ": '" + text + "'");
  }
  if (v < lo || v > hi) {
    const std::string range = std::to_string(lo) + ", " + std::to_string(hi);
    fail(what + " must be " +
         (hi == INT64_MAX ? ">= " + std::to_string(lo) : "in [" + range + "]"));
  }
  return v;
}

int int_in(Str what, Str text, int lo, int hi) {
  return static_cast<int>(integer(what, text, lo, hi));
}

double probability(Str what, Str text) {
  const double p = number(what, text);
  if (p < 0.0 || p > 1.0) fail(what + " must be a probability in [0, 1]");
  return p;
}

// v * unit truncated toward zero, refusing products int64 cannot hold.
int64_t truncated(Str what, double v, double unit) {
  const double x = v * unit;
  if (!(std::fabs(x) < 0x1p63)) fail(what + " is out of range");
  return static_cast<int64_t>(x);
}

// A duration written in 1/per_second seconds (1 = s, 1e3 = ms, 1e6 = us):
// the arithmetic of TimeDelta::seconds_f(v / per_second).
TimeDelta duration(Str what, Str text, Min min, double per_second = 1.0) {
  const double seconds = number(what, text, min) / per_second;
  const TimeDelta d = TimeDelta::nanos(truncated(what, seconds, 1e9));
  if (min == Min::kPositive && d <= TimeDelta::zero()) {
    fail(what + " rounds to zero nanoseconds");
  }
  return d;
}

Time instant(Str what, Str text) {
  return Time::zero() + duration(what, text, Min::kZero);
}

// Megabits per second: the arithmetic of DataRate::bps_f(v * 1e6).
DataRate megabits(Str what, Str text) {
  const DataRate r =
      DataRate::bps(truncated(what, number(what, text, Min::kPositive), 1e6));
  if (r.bits_per_sec() <= 0) fail(what + " rounds to zero bits per second");
  return r;
}

uint64_t millis(Str what, Str text, Min min) {
  const int64_t ms = truncated(what, number(what, text, min), 1e3);
  if (min == Min::kPositive && ms <= 0) fail(what + " rounds to zero milliseconds");
  return static_cast<uint64_t>(ms);
}

// Splits an "a:b[:c]" value, checking that it has lo..hi fields.
std::vector<std::string> fields(Str what, Str text, size_t lo, size_t hi,
                                const char* want, char sep = ':') {
  std::vector<std::string> f = split(text, sep);
  if (f.size() < lo || f.size() > hi) {
    fail("bad " + what + " '" + text + "' (want " + want + ")");
  }
  return f;
}

// Enum names, in enum order, shared by the parsers and the renderers.
constexpr const char* kSettings[] = {"edge", "core"};
constexpr const char* kArrivals[] = {"poisson", "fixed"};
constexpr const char* kSizes[] = {"pareto", "lognormal", "fixed", "cdf"};
constexpr const char* kApps[] = {"bulk", "rr", "web", "video"};
constexpr const char* kJitterDists[] = {"uniform", "normal"};

template <typename Enum, size_t N>
Enum named(Str what, Str name, const char* const (&names)[N]) {
  std::string known;
  for (size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<Enum>(i);
    add(known, names[i], '|');
  }
  fail(what + " must be " + known + " (got '" + name + "')");
}

template <size_t N, typename Enum>
std::string name_of(const char* const (&names)[N], Enum value) {
  return names[static_cast<size_t>(value)];
}

// ---- Compound values --------------------------------------------------------

FlowGroup parse_group(Str text) {
  const auto f = fields("--groups entry", text, 3, 3, "cca:count:rtt_ms");
  (void)cca_row(f[0]);  // validate the name early
  return FlowGroup{f[0], int_in("--groups count", f[1], 1, INT_MAX),
                   duration("--groups rtt", f[2], Min::kPositive, 1e3)};
}

// The size field of --workload-class. '/' separates its sub-fields so the
// class itself can keep ':' as its separator.
SizeDist parse_size_spec(Str text) {
  const std::string what = "--workload-class size";
  SizeDist d;
  d.kind = named<SizeDistKind>(what, text.substr(0, text.find('/')), kSizes);
  if (d.kind == SizeDistKind::kEmpirical) {
    if (text.size() <= 4) fail("bad size spec '" + text + "' (want cdf/<path>)");
    // The path may itself contain '/', so take everything after "cdf/".
    d.empirical_path = text.substr(4);
    d.empirical = parse_empirical_cdf_file(d.empirical_path);
    return d;
  }
  constexpr const char* kWant[] = {"pareto/<alpha>/<min_segs>/<max_segs>",
                                   "lognormal/<mu>/<sigma>/<min_segs>/<max_segs>",
                                   "fixed/<segments>"};
  constexpr size_t kFields[] = {4, 5, 2};
  const size_t n = kFields[static_cast<size_t>(d.kind)];
  const auto f = fields("size spec", text, n, n, kWant[static_cast<size_t>(d.kind)], '/');
  if (d.kind == SizeDistKind::kFixed) {
    d.fixed_segments = static_cast<uint64_t>(integer(what + " fixed", f[1], 1));
    d.min_segments = d.max_segments = d.fixed_segments;
    return d;
  }
  const int64_t lo = integer(what + " min", f[n - 2], 1);
  d.min_segments = static_cast<uint64_t>(lo);
  d.max_segments = static_cast<uint64_t>(integer(what + " max", f[n - 1], lo));
  if (d.kind == SizeDistKind::kLognormal) {
    d.lognormal_mu = number(what + " lognormal mu", f[1]);
    d.lognormal_sigma = number(what + " lognormal sigma", f[2], Min::kPositive);
    // Every sample is exp(mu + sigma * z) with |z| <= 6. A law that reaches
    // past the double range is a typo, not a size model.
    const double spread = 6.0 * d.lognormal_sigma;
    if (!std::isfinite(std::exp(d.lognormal_mu + spread)) ||
        std::exp(d.lognormal_mu - spread) == 0.0) {
      fail(what + " lognormal mu/sigma reach beyond the double range");
    }
    return d;
  }
  d.pareto_alpha = number(what + " pareto alpha", f[1], Min::kPositive);
  // The bounded-Pareto sampler raises both bounds to alpha; once that
  // overflows every sample is NaN.
  const double span =
      static_cast<double>(d.min_segments) * static_cast<double>(d.max_segments);
  if (!std::isfinite(std::pow(span, d.pareto_alpha))) {
    fail(what + " pareto alpha is too large for the size bounds");
  }
  return d;
}

// The name, CCA and weight sum are checked by WorkloadSpec::validate().
WorkloadClass parse_workload_class(Str text) {
  const std::string what = "--workload-class";
  const auto f = fields(what, text, 6, 6, "name:weight:cca:rtt_ms:size_spec:app_spec");
  WorkloadClass c;
  c.name = f[0];
  c.weight = number(what + " weight", f[1], Min::kPositive);
  c.cca = f[2];
  c.rtt = duration(what + " rtt", f[3], Min::kPositive, 1e3);
  c.size = parse_size_spec(f[4]);
  const auto app = split(f[5], '/');
  c.app = named<AppModel>(what + " app", app[0], kApps);
  if (app.size() != (c.app == AppModel::kBulk ? 1 : 3)) {
    fail("bad app spec '" + f[5] + "' (want bulk, rr/<burst>/<think_ms>, " +
         "web/<burst>/<gap_ms> or video/<chunk>/<interval_ms>)");
  }
  if (c.app == AppModel::kBulk) return c;
  c.app_burst_segments = static_cast<uint64_t>(integer(what + " app burst", app[1], 1));
  const Min gap = c.app == AppModel::kVideoChunk ? Min::kPositive : Min::kZero;
  c.app_gap = duration(what + " app time", app[2], gap, 1e3);
  return c;
}

// "t:v[,t:v...]" fault schedules. Times must be strictly increasing within
// one flag (cross-flag ties are caught by ImpairmentConfig::validate());
// `add_entry` appends one entry's faults and returns its last time.
using Faults = std::vector<LinkFault>;

template <typename AddEntry>
void parse_schedule(Cli& o, Str key, Str value, const char* want, AddEntry add_entry) {
  Time prev = Time::nanos(-1);
  for (const std::string& entry : split(value, ',')) {
    const auto f = fields(key + " entry", entry, 2, 2, want);
    const Time at = instant(key + " time", f[0]);
    if (at <= prev) fail(key + " schedule must be strictly increasing");
    prev = add_entry(o.spec.scenario.net.impairments.faults, at, f[1]);
  }
}

// ---- Rendering --------------------------------------------------------------

std::string render_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Decimal text that reproduces `target` exactly after the flag's
// parse-and-truncate transform. %.17g round-trips the double itself, but
// TimeDelta::seconds_f / DataRate::bps_f truncate toward zero, so the
// printed value is nudged by ULPs until the transform lands on the exact
// integer. The transforms are monotonic with sub-integer granularity at
// every realistic magnitude, so a handful of nudges always converges.
template <typename Transform>
std::string render_exact(double start, int64_t target, Transform&& apply) {
  double v = start;
  for (int i = 0; i < 64; ++i) {
    std::string text = render_value(v);
    const int64_t got = apply(std::strtod(text.c_str(), nullptr));
    if (got == target) return text;
    v = std::nextafter(v, got < target ? std::numeric_limits<double>::infinity()
                                       : -std::numeric_limits<double>::infinity());
  }
  return render_value(start);
}

// The inverse of duration(): `d` written in 1/per_second seconds.
std::string render_duration(TimeDelta d, double per_second = 1.0) {
  if (d.ns() == 0) return "0";
  return render_exact(d.sec() * per_second, d.ns(), [per_second](double v) {
    return TimeDelta::seconds_f(v / per_second).ns();
  });
}

std::string render_time(Time t) { return render_duration(t - Time::zero()); }

std::string render_ms_pair(TimeDelta a, TimeDelta b) {
  return render_duration(a, 1e3) + ":" + render_duration(b, 1e3);
}

std::string render_mbps(DataRate r) {
  return render_exact(r.mbps_f(), r.bits_per_sec(), [](double v) {
    return DataRate::bps_f(v * 1e6).bits_per_sec();
  });
}

std::string render_faults(Spec s, LinkFault::Kind kind) {
  std::string list;
  for (const LinkFault& f : s.scenario.net.impairments.faults) {
    if (f.kind != kind) continue;
    add(list, render_time(f.at) + ":" +
                  (kind == LinkFault::Kind::kRate ? render_mbps(f.rate)
                                                  : std::to_string(f.buffer_bytes)));
  }
  return list;
}

// kDown/kUp pairs become --flap windows. Faults are time-sorted, so the
// schedule stays strictly increasing and re-parses cleanly.
std::string render_flaps(Spec s, Notes& notes) {
  std::string flaps;
  const LinkFault* down = nullptr;
  auto unpaired = [&notes](const LinkFault& f) {
    notes.push_back(std::string("unpaired link-") +
                    (f.kind == LinkFault::Kind::kDown ? "down" : "up") + " fault at " +
                    render_time(f.at) + "s is not renderable");
  };
  for (const LinkFault& f : s.scenario.net.impairments.faults) {
    if (f.kind == LinkFault::Kind::kDown) {
      if (down != nullptr) unpaired(*down);
      down = &f;
    } else if (f.kind == LinkFault::Kind::kUp && down == nullptr) {
      unpaired(f);
    } else if (f.kind == LinkFault::Kind::kUp) {
      add(flaps, render_time(down->at) + ":" + render_time(f.at));
      down = nullptr;
    }
  }
  if (down != nullptr) unpaired(*down);
  return flaps;
}

// One --workload-class value per line.
std::string render_classes(Spec s, Notes& notes) {
  if (!s.workload.enabled()) return "";
  std::string lines;
  for (const WorkloadClass& c : s.workload.classes) {
    const SizeDist& d = c.size;
    const SizeDist d0;
    std::string size = name_of(kSizes, d.kind) + "/";
    switch (d.kind) {
      case SizeDistKind::kPareto:
        size += render_value(d.pareto_alpha);
        break;
      case SizeDistKind::kLognormal:
        size += render_value(d.lognormal_mu) + "/" + render_value(d.lognormal_sigma);
        break;
      case SizeDistKind::kFixed:
        size += std::to_string(d.fixed_segments);
        break;
      case SizeDistKind::kEmpirical:
        size += d.empirical_path;
        break;
    }
    const bool cdf = d.kind == SizeDistKind::kEmpirical;
    if (cdf && d.empirical_path.empty()) {
      notes.push_back("class '" + c.name + "' uses an in-memory empirical CDF (no flag); "
                      "workload is not fully renderable");
      continue;
    }
    if (cdf) {
      notes.push_back("class '" + c.name + "' replay re-reads " + d.empirical_path +
                      " (file content is not pinned by the flag)");
    }
    if (d.kind == SizeDistKind::kPareto || d.kind == SizeDistKind::kLognormal) {
      size += "/" + std::to_string(d.min_segments) + "/" + std::to_string(d.max_segments);
    }
    // Parameters a class's models never read still reach the cache key.
    const bool fixed = d.kind == SizeDistKind::kFixed;
    const bool lognormal = d.kind == SizeDistKind::kLognormal;
    if ((d.kind != SizeDistKind::kPareto && d.pareto_alpha != d0.pareto_alpha) ||
        (!lognormal && d.lognormal_mu != d0.lognormal_mu) ||
        (!lognormal && d.lognormal_sigma != d0.lognormal_sigma) ||
        (!fixed && d.fixed_segments != d0.fixed_segments) ||
        (fixed && d.min_segments != d.fixed_segments) ||
        (fixed && d.max_segments != d.fixed_segments) ||
        (cdf && d.min_segments != d0.min_segments) ||
        (cdf && d.max_segments != d0.max_segments) ||
        (c.app == AppModel::kBulk && c.app_burst_segments != 0) ||
        (c.app == AppModel::kBulk && c.app_gap != TimeDelta::zero())) {
      notes.push_back("class '" + c.name +
                      "' sets size or app parameters its models do not read (no flag)");
    }
    std::string app = name_of(kApps, c.app);
    if (c.app != AppModel::kBulk) {
      app += "/" + std::to_string(c.app_burst_segments) + "/" +
             render_duration(c.app_gap, 1e3);
    }
    add(lines,
        c.name + ":" + render_value(c.weight) + ":" + c.cca + ":" +
            render_duration(c.rtt, 1e3) + ":" + size + ":" + app,
        '\n');
  }
  return lines;
}

// ---- The flag tables --------------------------------------------------------

// One command-line flag, declared once: parse_cli / parse_fleet_cli parse
// with it, cli_usage / fleet_cli_usage print it, spec_to_cli renders it.
template <typename Opts>
struct Flag {
  const char* name;
  const char* metavar;  // nullptr: a switch, which takes no value
  const char* help;     // '\n' starts an indented continuation line
  void (*parse)(Opts& o, Str key, Str value);
  // The flag's value for a spec: "" for none, one line per occurrence of a
  // repeatable flag, any text for a set switch. spec_to_cli emits it where
  // it differs from the value for parse_cli's defaults. Null for flags
  // that set nothing in the spec.
  std::string (*render)(Spec s, Notes& notes) = nullptr;
  // Set for grid flags a fleet job refuses: the reason, for the message.
  const char* fleet_reject = nullptr;
};

constexpr Flag<Cli> kGridFlags[] = {
    {"--setting", "edge|core", "scenario preset (default core); applied\n"
                               "before every other flag",
     [](Cli& o, Str k, Str v) {
       o.spec.scenario = Scenario::for_setting(named<Setting>(k, v, kSettings));
     },
     [](Spec s, Notes&) { return name_of(kSettings, s.scenario.setting); }},
    {"--groups", "cca:count:rtt_ms[,...]",
     "flow groups (required unless an open-loop\n--workload is given)",
     [](Cli& o, Str, Str v) {
       for (const std::string& g : split(v, ',')) o.spec.groups.push_back(parse_group(g));
     },
     [](Spec s, Notes&) {
       std::string groups;
       for (const FlowGroup& g : s.groups) {
         add(groups, g.cca + ":" + std::to_string(g.count) + ":" +
                         render_duration(g.rtt, 1e3));
       }
       return groups;
     }},
    {"--rate", "<mbps>", "bottleneck rate override",
     [](Cli& o, Str k, Str v) { o.spec.scenario.net.bottleneck_rate = megabits(k, v); },
     [](Spec s, Notes&) { return render_mbps(s.scenario.net.bottleneck_rate); }},
    {"--buffer", "<bytes>", "buffer size override",
     [](Cli& o, Str k, Str v) { o.spec.scenario.net.buffer_bytes = integer(k, v, 1); },
     [](Spec s, Notes&) { return std::to_string(s.scenario.net.buffer_bytes); }},
    {"--qdisc", "<name>",
     "bottleneck queue discipline: drop-tail\n(default), codel, fq-codel, pie, red",
     [](Cli& o, Str, Str v) { o.spec.scenario.net.qdisc.kind = qdisc_kind_from_name(v); },
     [](Spec s, Notes&) {
       return std::string(qdisc_kind_name(s.scenario.net.qdisc.kind));
     }},
    {"--ecn", nullptr, "mark instead of drop (AQM qdiscs only)",
     [](Cli& o, Str, Str) { o.spec.scenario.net.qdisc.ecn = true; },
     [](Spec s, Notes&) {
       const QdiscConfig& q = s.scenario.net.qdisc;  // drop-tail encodes no ECN bit
       return std::string(q.enabled() && q.ecn ? "on" : "");
     }},
    {"--codel", "<target_ms>:<interval_ms>", "CoDel / FQ-CoDel control law",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 2, "target_ms:interval_ms");
       QdiscConfig& q = o.spec.scenario.net.qdisc;
       q.codel_target = duration(k + " target", f[0], Min::kPositive, 1e3);
       q.codel_interval = duration(k + " interval", f[1], Min::kPositive, 1e3);
     },
     [](Spec s, Notes&) {
       const QdiscConfig& q = s.scenario.net.qdisc;
       return render_ms_pair(q.codel_target, q.codel_interval);
     }},
    {"--fq", "<flows>:<quantum_bytes>", "FQ-CoDel flow table and DRR quantum",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 2, "flows:quantum_bytes");
       QdiscConfig& q = o.spec.scenario.net.qdisc;
       q.fq_flows = static_cast<uint32_t>(integer(k + " flows", f[0], 1, UINT32_MAX));
       q.fq_quantum = integer(k + " quantum", f[1], 1);
     },
     [](Spec s, Notes&) {
       const QdiscConfig& q = s.scenario.net.qdisc;
       return std::to_string(q.fq_flows) + ":" + std::to_string(q.fq_quantum);
     }},
    {"--pie", "<target_ms>:<tupdate_ms>", "PIE latency target and update period",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 2, "target_ms:tupdate_ms");
       QdiscConfig& q = o.spec.scenario.net.qdisc;
       q.pie_target = duration(k + " target", f[0], Min::kPositive, 1e3);
       // QdiscConfig::validate() rejects a zero tupdate when PIE is selected.
       q.pie_tupdate = duration(k + " tupdate", f[1], Min::kZero, 1e3);
     },
     [](Spec s, Notes&) {
       const QdiscConfig& q = s.scenario.net.qdisc;
       return render_ms_pair(q.pie_target, q.pie_tupdate);
     }},
    {"--red", "<min_bytes>:<max_bytes>[:<max_p>]", "RED thresholds (0:0 = auto)",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 3, "min_bytes:max_bytes[:max_p]");
       QdiscConfig& q = o.spec.scenario.net.qdisc;
       q.red_min_bytes = integer(k + " min", f[0], 0);
       q.red_max_bytes = integer(k + " max", f[1], 0);
       if (f.size() == 3) q.red_max_p = probability(k + " max_p", f[2]);
     },
     [](Spec s, Notes&) {
       const QdiscConfig& q = s.scenario.net.qdisc;
       return std::to_string(q.red_min_bytes) + ":" + std::to_string(q.red_max_bytes) +
              ":" + render_value(q.red_max_p);
     }},
    {"--workload", "poisson:<per_sec>|fixed:<per_sec>",
     "open-loop session arrivals (with or without\n"
     "--groups; groups then run as background flows)",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 2, "poisson:<per_sec> or fixed:<per_sec>");
       WorkloadSpec& wl = o.spec.workload;
       wl.arrival = named<ArrivalKind>(k + " arrival process", f[0], kArrivals);
       wl.arrivals_per_sec = number(k + " rate", f[1], Min::kPositive);
       // Past 1e9 per second the mean gap is below the 1 ns clock tick.
       if (wl.arrivals_per_sec > 1e9) fail(k + " rate must be at most 1e9 per second");
     },
     [](Spec s, Notes&) {
       const WorkloadSpec& wl = s.workload;
       if (!wl.enabled()) return std::string();
       return name_of(kArrivals, wl.arrival) + ":" + render_value(wl.arrivals_per_sec);
     }},
    {"--workload-class", "<name>:<weight>:<cca>:<rtt_ms>:<size>:<app>",
     "repeatable; weights must sum to 1\n"
     "size: pareto/<alpha>/<min>/<max> |\n"
     "      lognormal/<mu>/<sigma>/<min>/<max> |\n"
     "      fixed/<segments> | cdf/<path>\n"
     "app:  bulk | rr/<burst>/<think_ms> |\n"
     "      web/<burst>/<gap_ms> | video/<chunk>/<interval_ms>",
     [](Cli& o, Str, Str v) {
       o.spec.workload.classes.push_back(parse_workload_class(v));
     },
     render_classes},
    // 0 means "unlimited" internally, the default when the flag is absent;
    // an explicit --workload-max=0 is a typo'd cap.
    {"--workload-max", "<n>", "admission cap on concurrent workload flows",
     [](Cli& o, Str k, Str v) { o.spec.workload.max_concurrent = integer(k, v, 1); },
     [](Spec s, Notes&) {
       const WorkloadSpec& wl = s.workload;
       const bool capped = wl.enabled() && wl.max_concurrent != 0;
       return capped ? std::to_string(wl.max_concurrent) : "";
     }},
    {"--stagger", "<sec>", "spread of flow start times",
     [](Cli& o, Str k, Str v) { o.spec.scenario.stagger = duration(k, v, Min::kZero); },
     [](Spec s, Notes&) { return render_duration(s.scenario.stagger); }},
    {"--warmup", "<sec>", "warm-up before the measurement window",
     [](Cli& o, Str k, Str v) { o.spec.scenario.warmup = duration(k, v, Min::kZero); },
     [](Spec s, Notes&) { return render_duration(s.scenario.warmup); }},
    {"--measure", "<sec>", "measurement window",
     [](Cli& o, Str k, Str v) {
       o.spec.scenario.measure = duration(k, v, Min::kPositive);
     },
     [](Spec s, Notes&) { return render_duration(s.scenario.measure); }},
    {"--seed", "<n>", "RNG seed (default 1)",
     [](Cli& o, Str k, Str v) { o.spec.seed = integer(k, v, 0); },
     [](Spec s, Notes&) { return std::to_string(s.seed); }},
    {"--jitter", "<microsec>", "forward-path jitter (default 500)",
     [](Cli& o, Str k, Str v) {
       o.spec.scenario.net.jitter = duration(k, v, Min::kZero, 1e6);
     },
     [](Spec s, Notes&) { return render_duration(s.scenario.net.jitter, 1e6); }},
    {"--loss", "<p>", "i.i.d. exogenous loss probability",
     [](Cli& o, Str k, Str v) {
       o.spec.scenario.net.impairments.loss = probability(k, v);
     },
     [](Spec s, Notes&) { return render_value(s.scenario.net.impairments.loss); }},
    {"--ge-loss", "<p_gb>:<p_bg>:<loss_bad>[:<loss_good>]",
     "Gilbert-Elliott bursty loss chain",
     [](Cli& o, Str k, Str v) {
       const auto f =
           fields(k, v, 3, 4, "p_good_to_bad:p_bad_to_good:loss_bad[:loss_good]");
       GilbertElliottConfig& ge = o.spec.scenario.net.impairments.ge;
       ge.p_good_to_bad = probability(k + " p_good_to_bad", f[0]);
       ge.p_bad_to_good = probability(k + " p_bad_to_good", f[1]);
       ge.loss_bad = probability(k + " loss_bad", f[2]);
       ge.loss_good = f.size() == 4 ? probability(k + " loss_good", f[3]) : 0.0;
     },
     [](Spec s, Notes&) {
       const GilbertElliottConfig& ge = s.scenario.net.impairments.ge;
       return render_value(ge.p_good_to_bad) + ":" + render_value(ge.p_bad_to_good) +
              ":" + render_value(ge.loss_bad) + ":" + render_value(ge.loss_good);
     }},
    {"--dup", "<p>", "duplication probability",
     [](Cli& o, Str k, Str v) {
       o.spec.scenario.net.impairments.duplicate = probability(k, v);
     },
     [](Spec s, Notes&) { return render_value(s.scenario.net.impairments.duplicate); }},
    {"--reorder", "<p>:<max_ms>", "delay-swap reordering (bounded window)",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 2, 2, "probability:max_delay_ms");
       ImpairmentConfig& imp = o.spec.scenario.net.impairments;
       imp.reorder = probability(k + " probability", f[0]);
       // ImpairmentConfig::validate() requires a positive window to reorder.
       imp.reorder_delay = duration(k + " max_delay", f[1], Min::kZero, 1e3);
     },
     [](Spec s, Notes&) {
       const ImpairmentConfig& imp = s.scenario.net.impairments;
       return render_value(imp.reorder) + ":" + render_duration(imp.reorder_delay, 1e3);
     }},
    {"--link-jitter", "<microsec>[:uniform|normal]",
     "per-packet wire jitter (impairment stage)",
     [](Cli& o, Str k, Str v) {
       const auto f = fields(k, v, 1, 2, "microsec[:uniform|normal]");
       ImpairmentConfig& imp = o.spec.scenario.net.impairments;
       imp.jitter = duration(k, f[0], Min::kZero, 1e6);
       if (f.size() == 2) {
         imp.jitter_dist =
             named<ImpairmentConfig::JitterDist>(k + " distribution", f[1], kJitterDists);
       }
     },
     [](Spec s, Notes&) {
       const ImpairmentConfig& imp = s.scenario.net.impairments;
       return render_duration(imp.jitter, 1e6) + ":" +
              name_of(kJitterDists, imp.jitter_dist);
     }},
    {"--flap", "<down_s>:<up_s>[,...]", "link down/up fault windows",
     [](Cli& o, Str k, Str v) {
       parse_schedule(o, k, v, "down_sec:up_sec", [](Faults& faults, Time at, Str text) {
         const Time up = instant("--flap up", text);
         if (up <= at) fail("--flap up time must follow its down time");
         faults.push_back(LinkFault{at, LinkFault::Kind::kDown});
         faults.push_back(LinkFault{up, LinkFault::Kind::kUp});
         return up;
       });
     },
     render_flaps},
    {"--rate-change", "<sec>:<mbps>[,...]", "scheduled rate faults",
     [](Cli& o, Str k, Str v) {
       parse_schedule(o, k, v, "sec:mbps", [](Faults& faults, Time at, Str text) {
         const DataRate rate = megabits("--rate-change rate", text);
         faults.push_back(LinkFault{at, LinkFault::Kind::kRate, rate});
         return at;
       });
     },
     [](Spec s, Notes&) { return render_faults(s, LinkFault::Kind::kRate); }},
    {"--buffer-change", "<sec>:<bytes>[,...]", "scheduled buffer faults",
     [](Cli& o, Str k, Str v) {
       parse_schedule(o, k, v, "sec:bytes", [](Faults& faults, Time at, Str text) {
         const int64_t bytes = integer("--buffer-change bytes", text, 1);
         faults.push_back(LinkFault{at, LinkFault::Kind::kBuffer, {}, bytes});
         return at;
       });
     },
     [](Spec s, Notes&) { return render_faults(s, LinkFault::Kind::kBuffer); }},
    {"--no-sack", nullptr, "disable SACK",
     [](Cli& o, Str, Str) { o.spec.tcp.sack_enabled = false; },
     [](Spec s, Notes&) { return std::string(s.tcp.sack_enabled ? "" : "on"); }},
    {"--no-delack", nullptr, "disable delayed ACKs",
     [](Cli& o, Str, Str) { o.spec.receiver.delayed_ack = false; },
     [](Spec s, Notes&) { return std::string(s.receiver.delayed_ack ? "" : "on"); }},
    {"--no-gro", nullptr, "disable receive-side segment batching",
     [](Cli& o, Str, Str) { o.spec.receiver.gro_enabled = false; },
     [](Spec s, Notes&) { return std::string(s.receiver.gro_enabled ? "" : "on"); }},
    {"--rto-slack", "<microsec>",
     "coalesce RTO re-arms within this slack\n(0 = exact timing, the default)",
     [](Cli& o, Str k, Str v) {
       o.spec.tcp.rto_rearm_slack = duration(k, v, Min::kZero, 1e6);
     },
     [](Spec s, Notes&) { return render_duration(s.tcp.rto_rearm_slack, 1e6); }},
    {"--perf", nullptr, "print the kernel profiler summary per cell",
     [](Cli& o, Str, Str) { o.perf = true; }, nullptr,
     "profiles are per-run output, and the shared store and its report are the "
     "fleet's output"},
    {"--trace", "<sec>", "time-series sampling interval (0 = off)",
     [](Cli& o, Str k, Str v) { o.spec.trace_interval = duration(k, v, Min::kZero); },
     [](Spec s, Notes&) { return render_duration(s.trace_interval); },
     "traced cells are not cacheable, and the shared results store is the fleet's "
     "output"},
    {"--csv", "<prefix>", "write trace CSVs with this prefix",
     [](Cli& o, Str, Str v) { o.csv_prefix = v; }, nullptr,
     "the shared results store is the fleet's output"},
    {"--seeds", "<n,n,...>", "run one cell per seed (parallel sweep)",
     [](Cli& o, Str k, Str v) {
       for (const std::string& seed : split(v, ',')) {
         o.seeds.push_back(integer(k, seed, 0));
       }
     }},
    // An explicit --jobs=0 is a typo, not the default (hardware
    // concurrency).
    {"--jobs", "<n>", "worker threads (default: hardware concurrency)",
     [](Cli& o, Str k, Str v) { o.sweep.jobs = int_in(k, v, 1, INT_MAX); }, nullptr,
     "a worker computes one cell at a time (start more workers instead)"},
    {"--cache-dir", "<path>", "enable the on-disk result cache",
     [](Cli& o, Str, Str v) { o.sweep.cache_dir = v; }, nullptr,
     "the shared results store under <fleet-dir>/results is the fleet's cache"},
    {"--no-cache", nullptr, "bypass the cache even if a dir is set",
     [](Cli& o, Str, Str) { o.sweep.use_cache = false; }, nullptr,
     "the shared results store is the fleet's output and is always used"},
    {"--cell-timeout", "<sec>", "wall-clock watchdog per cell attempt",
     [](Cli& o, Str k, Str v) {
       o.sweep.supervision.cell_timeout = duration(k, v, Min::kPositive);
     }},
    // 0 means "no ceiling" internally; an explicit 0 is a typo'd budget.
    {"--cell-events", "<n>", "simulated-event ceiling per cell attempt",
     [](Cli& o, Str k, Str v) {
       o.sweep.supervision.max_cell_events = integer(k, v, 1);
     }},
    {"--cell-rss", "<mb>", "estimated-peak-RSS ceiling per cell attempt",
     [](Cli& o, Str k, Str v) {
       int64_t& rss = o.sweep.supervision.max_cell_rss_bytes;
       rss = truncated(k, number(k, v, Min::kPositive), 1e6);
       if (rss <= 0) fail(k + " rounds to zero bytes");
     }},
    {"--retries", "<n>", "retries for transient failures, 0-16 (default 2)",
     [](Cli& o, Str k, Str v) { o.sweep.supervision.retries = int_in(k, v, 0, 16); }},
    {"--max-failures", "<n>", "abort the sweep after n terminal cell failures",
     [](Cli& o, Str k, Str v) {
       o.sweep.max_failures = int_in(k, v, INT_MIN, INT_MAX);
       if (o.sweep.max_failures <= 0) {
         fail(k + " must be positive (use --fail-fast to abort on the first failure)");
       }
     },
     nullptr,
     "one worker cannot abort the others (use --fleet-wait to bound a stalled job)"},
    {"--resume", "<dir>", "resumable manifest; journaled-ok cells are skipped",
     [](Cli& o, Str, Str v) { o.sweep.resume_dir = v; }, nullptr,
     "the fleet store is itself the resumable manifest (point --fleet-dir at it again "
     "to resume)"},
    {"--quarantine", "<dir>", "where failed cells write .repro replay files",
     [](Cli& o, Str, Str v) { o.sweep.quarantine_dir = v; }, nullptr,
     "failed cells write .repro files into <fleet-dir>/quarantine/"},
    {"--fail-fast", nullptr, "abort on the first failure and exit nonzero",
     [](Cli& o, Str, Str) { o.sweep.fail_fast = true; }, nullptr,
     "one worker cannot abort the others (use --fleet-wait to bound a stalled job)"},
};

constexpr Flag<Fleet> kFleetFlags[] = {
    {"--fleet-dir", "<dir>", "the shared job store (required)",
     [](Fleet& o, Str, Str v) { o.fleet_dir = v; }},
    {"--lease-ttl", "<sec>",
     "per-cell lease TTL (default 30); a worker\nkilled mid-cell is reclaimed after this",
     [](Fleet& o, Str k, Str v) { o.lease_ttl_ms = millis(k, v, Min::kPositive); }},
    {"--heartbeat", "<sec>", "lease renewal interval (default TTL/3)",
     [](Fleet& o, Str k, Str v) { o.heartbeat_ms = millis(k, v, Min::kPositive); }},
    {"--fleet-wait", "<sec>",
     "give up (exit 5) after this long without\n"
     "any worker journaling progress (0 = wait\nforever, the default)",
     [](Fleet& o, Str k, Str v) { o.wait_ms = millis(k, v, Min::kZero); }},
    {"--worker-id", "<id>", "stable worker name (default w<pid>)",
     [](Fleet& o, Str k, Str v) {
       if (v.find_first_of("/ \t\n\r") != std::string::npos) {
         fail(k + " must not contain '/' or whitespace (it names lease files and "
                  "journal fields)");
       }
       o.worker_id = v;
     }},
    {"--report-only", nullptr,
     "render the report from the store without\njoining as a worker; takes no grid flags",
     [](Fleet& o, Str, Str) { o.report_only = true; }},
};

using Figures = FiguresCliOptions;

constexpr Flag<Figures> kFigureFlags[] = {
    {"--figure", "<id>|all", "the figure to reproduce (required; ids below)",
     [](Figures& o, Str, Str v) { o.figure = v; }},
    {"--jobs", "<n>", "worker threads (default: hardware concurrency)",
     [](Figures& o, Str k, Str v) { o.sweep.jobs = int_in(k, v, 1, INT_MAX); }},
    {"--cache-dir", "<path>", "result cache directory (default .ccas-cache)",
     [](Figures& o, Str, Str v) { o.sweep.cache_dir = v; }},
    {"--no-cache", nullptr, "neither read nor write the cache",
     [](Figures& o, Str, Str) { o.sweep.use_cache = false; }},
    {"--no-progress", nullptr, "suppress the live stderr progress lines",
     [](Figures& o, Str, Str) { o.sweep.progress = false; }},
};

std::string key_of(Str arg) { return arg.substr(0, arg.find('=')); }

template <typename Opts, size_t N>
const Flag<Opts>* find_flag(const Flag<Opts> (&table)[N], Str key) {
  for (const Flag<Opts>& f : table) {
    if (key == f.name) return &f;
  }
  return nullptr;
}

// Parses one "--key[=value]" argument if `table` declares its key.
template <typename Opts, size_t N>
bool apply_flag(const Flag<Opts> (&table)[N], Opts& opts, Str arg) {
  const std::string key = key_of(arg);
  const Flag<Opts>* f = find_flag(table, key);
  if (f == nullptr) return false;
  const bool has_value = key.size() < arg.size();
  const std::string value = has_value ? arg.substr(key.size() + 1) : std::string();
  if (f->metavar == nullptr && has_value) fail(key + " takes no value");
  if (f->metavar != nullptr && value.empty()) fail(key + " needs a value");
  f->parse(opts, key, value);
  return true;
}

// An environment variable's value; unset and empty both read as null.
const char* env_value(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

// CCAS_JOBS, CCAS_CACHE_DIR and CCAS_NO_CACHE, the sweep environment of
// ccas_run, ccas_fleet and ccas_figures (their flags apply on top), read
// as strictly as the flags they stand in for.
sweep::SweepOptions sweep_env() {
  constexpr const char* kBits[] = {"0", "1"};
  sweep::SweepOptions opts;
  if (auto* v = env_value("CCAS_JOBS")) opts.jobs = int_in("CCAS_JOBS", v, 1, INT_MAX);
  if (auto* v = env_value("CCAS_CACHE_DIR")) opts.cache_dir = v;
  if (auto* v = env_value("CCAS_NO_CACHE")) {
    opts.use_cache = !named<bool>("CCAS_NO_CACHE", v, kBits);
  }
  return opts;
}

template <typename Opts, size_t N>
std::string usage_lines(const Flag<Opts> (&table)[N]) {
  const std::string indent(24, ' ');
  std::string out;
  for (const Flag<Opts>& f : table) {
    std::string line = std::string("  ") + f.name;
    if (f.metavar != nullptr) line += std::string("=") + f.metavar;
    line += line.size() < 23 ? std::string(24 - line.size(), ' ') : "\n" + indent;
    for (const std::string& help : split(f.help, '\n')) {
      out += line + help + "\n";
      line = indent;
    }
  }
  return out;
}

}  // namespace

std::string cli_usage() {
  std::string ccas;
  for (const CcaRow& row : cca_table()) ccas += (ccas.empty() ? "" : ", ") + row.name;
  return "usage: ccas_run --groups=cca:count:rtt_ms[,...] [options]\n"
         "       ccas_run --workload=poisson:<per_sec> --workload-class=... "
         "[options]\n" +
         usage_lines(kGridFlags) +
         "Exit codes: 0 ok, 1 usage/config, 2 deterministic cell failure,\n"
         "            3 budget exceeded, 4 transient failure after retries\n"
         "CCAs: " + ccas + "\n";
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions opts;
  opts.spec.scenario = Scenario::core_scale();
  opts.sweep = sweep_env();
  // Sharding is retired: a set CCAS_SHARDS is refused, not silently run
  // serially (--shards is refused as an unknown flag).
  if (env_value("CCAS_SHARDS") != nullptr) {
    fail("CCAS_SHARDS is no longer supported: sharded execution was removed "
         "and every cell runs serially (unset it)");
  }
  // --setting replaces the whole scenario, so it goes first whatever the
  // argument order: overrides such as --rate always apply on top of it.
  std::vector<std::string> ordered = args;
  std::stable_partition(ordered.begin(), ordered.end(),
                        [](Str arg) { return key_of(arg) == "--setting"; });
  for (const std::string& arg : ordered) {
    if (arg.rfind("--", 0) != 0) fail("unexpected argument '" + arg + "'");
    if (!apply_flag(kGridFlags, opts, arg)) {
      fail("unknown flag '" + key_of(arg) + "'\n" + cli_usage());
    }
  }

  if (!opts.spec.workload.classes.empty() &&
      opts.spec.workload.arrivals_per_sec <= 0.0) {
    fail("--workload-class requires --workload=<process>:<per_sec>");
  }
  if (opts.spec.workload.arrivals_per_sec > 0.0 &&
      opts.spec.workload.classes.empty()) {
    fail("--workload requires at least one --workload-class");
  }
  if (opts.spec.groups.empty() && !opts.spec.workload.enabled()) {
    fail("--groups or --workload is required\n" + cli_usage());
  }
  if (opts.sweep.fail_fast && opts.sweep.max_failures > 0) {
    fail("--fail-fast and --max-failures are mutually exclusive (--fail-fast "
         "already aborts on the first failure)");
  }
  if (opts.sweep.fail_fast && !opts.sweep.resume_dir.empty()) {
    fail("--fail-fast aborts without journaling completed cells consistently; "
         "use --max-failures=1 together with --resume instead");
  }
  // Faults from different flags (--flap, --rate-change, --buffer-change)
  // merge into one schedule; validate() then rejects cross-flag ties.
  auto& faults = opts.spec.scenario.net.impairments.faults;
  std::stable_sort(faults.begin(), faults.end(),
                   [](const LinkFault& a, const LinkFault& b) { return a.at < b.at; });
  opts.spec.scenario.net.impairments.validate();
  opts.spec.scenario.net.qdisc.validate();
  opts.spec.workload.validate();  // weight sum, per-class params
  return opts;
}

sweep::SweepSpec seed_grid(const CliOptions& opts, std::string name) {
  sweep::SweepSpec grid;
  grid.name = std::move(name);
  for (const uint64_t seed : opts.seeds.empty() ? std::vector<uint64_t>{opts.spec.seed}
                                                : opts.seeds) {
    ExperimentSpec spec = opts.spec;
    spec.seed = seed;
    grid.add_cell("seed=" + std::to_string(seed), std::move(spec));
  }
  return grid;
}

std::string fleet_cli_usage() {
  std::string refused;
  for (const auto& f : kGridFlags) {
    if (f.fleet_reject != nullptr) add(refused, f.name, ' ');
  }
  return "usage: ccas_fleet --fleet-dir=<dir> --groups=... [options]\n"
         "       ccas_fleet --fleet-dir=<dir> --report-only\n"
         "Runs one fleet worker against a shared job store: independent\n"
         "ccas_fleet processes pointed at the same --fleet-dir divide the\n"
         "grid between them via per-cell leases and converge on results\n"
         "byte-identical to a serial ccas_run of the same flags.\n" +
         usage_lines(kFleetFlags) +
         "All other flags describe the grid and are shared with ccas_run\n"
         "(--groups, --seeds, --setting, budgets, --retries, ...); every\n"
         "worker of one job must pass the same grid flags. These do not\n"
         "apply to fleet jobs and are rejected:\n  " + refused + "\n"
         "A set CCAS_JOBS, CCAS_CACHE_DIR or CCAS_NO_CACHE is rejected too.\n"
         "Exit codes: 0 ok, 1 usage/config/salt mismatch, 2 deterministic\n"
         "            cell failure, 3 budget exceeded, 4 transient failure\n"
         "            after retries, 5 job incomplete (tools/EXIT_CODES.md)\n";
}

FleetCli parse_fleet_cli(const std::vector<std::string>& args) {
  // The sweep environment stands in for flags a fleet job refuses, so it
  // is refused with them instead of being read and then ignored.
  for (const auto& [var, flag] : {std::pair{"CCAS_JOBS", "--jobs"},
                                  std::pair{"CCAS_CACHE_DIR", "--cache-dir"},
                                  std::pair{"CCAS_NO_CACHE", "--no-cache"}}) {
    if (env_value(var) != nullptr) {
      fail(std::string(var) + " (like " + flag + ") does not apply to fleet jobs: " +
           find_flag(kGridFlags, flag)->fleet_reject);
    }
  }
  FleetCli cli;
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (apply_flag(kFleetFlags, cli.fleet, arg)) continue;
    // A fleet job must be a pure grid of cacheable cells: the store's
    // results and journal ARE the output, so flags that add side outputs
    // or a second manifest cannot mean anything coherent across N workers.
    const Flag<Cli>* grid = find_flag(kGridFlags, key_of(arg));
    if (grid != nullptr && grid->fleet_reject != nullptr) {
      fail(std::string(grid->name) + " does not apply to fleet jobs: " +
           grid->fleet_reject);
    }
    rest.push_back(arg);
  }

  if (cli.fleet.fleet_dir.empty()) {
    fail("--fleet-dir=<dir> is required\n" + fleet_cli_usage());
  }
  if (cli.fleet.heartbeat_ms != 0 &&
      cli.fleet.heartbeat_ms >= cli.fleet.lease_ttl_ms) {
    fail("--heartbeat must be shorter than --lease-ttl (a heartbeat that "
         "fires after expiry cannot keep the lease)");
  }
  if (cli.fleet.report_only) {
    if (!rest.empty()) {
      fail("--report-only reads the grid from the store's job.spec and takes "
           "no grid flags (got '" + rest.front() + "')");
    }
    return cli;
  }
  cli.run = parse_cli(rest);
  return cli;
}

std::string figures_cli_usage(const std::vector<std::string>& ids) {
  std::string list;
  for (const std::string& id : ids) add(list, id, ' ');
  return "usage: ccas_figures --figure=<id>|all [options]\n"
         "Reproduces one row of the figure table (or every row): runs its\n"
         "cells, prints its table next to the paper's values and writes\n"
         "<bench name>.csv into the working directory.\n" +
         usage_lines(kFigureFlags) +
         "Figure ids: " + list + "\n"
         "Environment: CCAS_JOBS, CCAS_CACHE_DIR, CCAS_NO_CACHE=1; REPRO_SCALE\n"
         "(default 0.2), REPRO_WARMUP_SEC, REPRO_MEASURE_SEC, REPRO_STAGGER_SEC\n"
         "Exit codes: 0 ok, 1 usage error, bad REPRO_* value, failed cell or\n"
         "            failed figure gate (tools/EXIT_CODES.md)\n";
}

FiguresCliOptions parse_figures_cli(const std::vector<std::string>& args,
                                    const std::vector<std::string>& ids) {
  FiguresCliOptions opts;
  opts.sweep = sweep_env();
  if (opts.sweep.cache_dir.empty()) opts.sweep.cache_dir = ".ccas-cache";
  opts.sweep.fail_fast = true;
  for (const std::string& arg : args) {
    if (!apply_flag(kFigureFlags, opts, arg)) {
      fail("unknown flag '" + key_of(arg) + "' (see --help)");
    }
  }
  if (opts.figure.empty()) fail("--figure=<id>|all is required (see --help)");
  if (opts.figure != "all" &&
      std::find(ids.begin(), ids.end(), opts.figure) == ids.end()) {
    fail("--figure must be all or one of the ids --help lists (got '" + opts.figure +
         "')");
  }
  return opts;
}

SpecCliRendering spec_to_cli(const ExperimentSpec& spec) {
  // A flag is rendered where its value differs from the one parse_cli
  // gives without it under the same --setting, which always renders.
  ExperimentSpec defaults;
  defaults.scenario = Scenario::for_setting(spec.scenario.setting);
  SpecCliRendering out;
  Notes unused;
  for (const Flag<Cli>& f : kGridFlags) {
    if (f.render == nullptr) continue;
    const std::string value = f.render(spec, out.notes);
    const bool setting = f.name == std::string_view("--setting");
    if (!setting && value == f.render(defaults, unused)) continue;
    for (const std::string& v : split(value, '\n')) {
      if (v.empty()) continue;
      out.args.push_back(f.metavar != nullptr ? std::string(f.name) + "=" + v : f.name);
    }
  }

  // Spec fields with no flag are surfaced as notes, so quarantine .repro
  // files are honest about what their replay command cannot reproduce.
  const Scenario& sc = spec.scenario;
  const QdiscConfig& qd = sc.net.qdisc;
  const QdiscConfig qd0;
  const DumbbellConfig net0;
  const TcpSenderConfig tcp0;
  const TcpReceiverConfig rcv0;
  const std::pair<bool, const char*> unflagged[] = {
      {sc.net.num_pairs != defaults.scenario.net.num_pairs, "num_pairs"},
      {!sc.net.edge_rate.is_infinite(), "finite edge_rate (host-NIC ablation)"},
      {sc.net.edge_buffer_bytes != net0.edge_buffer_bytes, "edge_buffer_bytes"},
      {sc.net.jitter_seed != net0.jitter_seed, "jitter_seed"},
      {sc.net.impairments.seed != 0, "impairment seed"},
      {sc.net.impairments.force_stage, "force_stage (observational)"},
      {qd.pie_alpha != qd0.pie_alpha || qd.pie_beta != qd0.pie_beta ||
           qd.pie_mark_ecnth != qd0.pie_mark_ecnth,
       "pie alpha/beta/mark_ecnth"},
      {qd.red_wq != qd0.red_wq || qd.red_gentle != qd0.red_gentle, "red wq/gentle"},
      {qd.seed != 0, "qdisc seed"},
      {spec.tcp.initial_cwnd != tcp0.initial_cwnd, "tcp.initial_cwnd"},
      {spec.tcp.max_window != tcp0.max_window, "tcp.max_window"},
      {spec.tcp.dup_thresh != tcp0.dup_thresh, "tcp.dup_thresh"},
      {spec.tcp.data_segments != tcp0.data_segments, "tcp.data_segments"},
      {spec.tcp.rtt.min_rto != tcp0.rtt.min_rto, "tcp.rtt.min_rto"},
      {spec.tcp.rtt.max_rto != tcp0.rtt.max_rto, "tcp.rtt.max_rto"},
      {spec.tcp.rtt.initial_rto != tcp0.rtt.initial_rto, "tcp.rtt.initial_rto"},
      {spec.receiver.delack_segment_threshold != rcv0.delack_segment_threshold,
       "receiver.delack_segment_threshold"},
      {spec.receiver.delack_timeout != rcv0.delack_timeout, "receiver.delack_timeout"},
      {spec.receiver.gro_flush_timeout != rcv0.gro_flush_timeout,
       "receiver.gro_flush_timeout"},
      {spec.receiver.gro_max_segments != rcv0.gro_max_segments,
       "receiver.gro_max_segments"},
      {spec.convergence_window != defaults.convergence_window, "convergence early-stop"},
      {spec.convergence_poll != defaults.convergence_poll, "convergence_poll"},
      {spec.convergence_tolerance != defaults.convergence_tolerance,
       "convergence_tolerance"},
      {!spec.record_drop_log, "record_drop_log=false"},
      {spec.record_congestion_log, "record_congestion_log=true"},
      {!spec.trace_flows.empty(), "trace_flows subset"},
      {spec.shards != 1, "shards (retired)"},
  };
  for (const auto& [overridden, field] : unflagged) {
    if (overridden) out.notes.push_back(std::string(field) + " has no flag");
  }
  return out;
}

std::string spec_to_cli_command(const ExperimentSpec& spec) {
  std::string cmd = "ccas_run";
  for (const std::string& arg : spec_to_cli(spec).args) cmd += " " + arg;
  return cmd;
}

}  // namespace ccas
