#include "src/check/golden.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"

namespace ccas::check {

namespace {

// All cells share the compressed timeline: long enough past the stagger
// and warm-up for losses and recovery episodes in every cell, short enough
// that the whole grid runs in seconds.
ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.scenario.stagger = TimeDelta::millis(200);
  spec.scenario.warmup = TimeDelta::millis(500);
  spec.scenario.measure = TimeDelta::seconds(1);
  spec.seed = 42;
  spec.record_drop_log = true;
  spec.record_congestion_log = true;
  return spec;
}

ExperimentSpec edge_spec() {
  ExperimentSpec spec = base_spec();
  spec.scenario.setting = Setting::kEdgeScale;
  spec.scenario.net.bottleneck_rate = DataRate::mbps(100);
  spec.scenario.net.buffer_bytes = 3 * 1000 * 1000;
  return spec;
}

// CoreScale regime scaled down in rate but kept above the ~600 Mbps GRO
// threshold (at 1 Gbps segments arrive 12 us apart, within the 20 us flush
// timeout), with a 1-BDP-at-200ms buffer.
ExperimentSpec core_spec() {
  ExperimentSpec spec = base_spec();
  spec.scenario.setting = Setting::kCoreScale;
  spec.scenario.net.bottleneck_rate = DataRate::gbps(1);
  spec.scenario.net.buffer_bytes = 25 * 1000 * 1000;
  return spec;
}

GoldenCell cell(std::string name, ExperimentSpec spec,
                std::vector<FlowGroup> groups) {
  spec.groups = std::move(groups);
  return GoldenCell{std::move(name), std::move(spec)};
}

}  // namespace

std::vector<GoldenCell> golden_grid() {
  const TimeDelta rtt20 = TimeDelta::millis(20);
  const TimeDelta rtt80 = TimeDelta::millis(80);
  std::vector<GoldenCell> cells;
  cells.push_back(cell("edge-newreno", edge_spec(), {{"newreno", 4, rtt20}}));
  cells.push_back(cell("edge-cubic", edge_spec(), {{"cubic", 4, rtt20}}));
  cells.push_back(cell("edge-bbr", edge_spec(), {{"bbr", 4, rtt20}}));
  cells.push_back(cell("edge-cubic-vs-bbr", edge_spec(),
                       {{"cubic", 2, rtt20}, {"bbr", 2, rtt20}}));
  cells.push_back(cell("edge-rtt-unfair", edge_spec(),
                       {{"cubic", 2, rtt20}, {"cubic", 2, rtt80}}));
  {
    ExperimentSpec spec = edge_spec();
    spec.tcp.sack_enabled = false;
    cells.push_back(cell("edge-nosack-newreno", std::move(spec),
                         {{"newreno", 3, rtt20}}));
  }
  cells.push_back(cell("core-cubic", core_spec(), {{"cubic", 8, rtt20}}));
  cells.push_back(cell("core-cubic-vs-bbr", core_spec(),
                       {{"cubic", 4, rtt20}, {"bbr", 4, rtt20}}));
  // Impaired cells: pin the exogenous-loss/reorder/jitter machinery. Both
  // leave impairments.seed at 0, so the recorded digests also pin the
  // derive_impairment_seed path in run_experiment.
  {
    // Bursty GE loss in the Edge regime: ~0.5% per-packet transition into
    // a bad state dropping half its packets — loss episodes a few packets
    // long, the regime where Mathis diverges most from i.i.d.
    ExperimentSpec spec = edge_spec();
    spec.scenario.net.impairments.ge.p_good_to_bad = 0.005;
    spec.scenario.net.impairments.ge.p_bad_to_good = 0.3;
    spec.scenario.net.impairments.ge.loss_bad = 0.5;
    cells.push_back(cell("edge-ge-loss", std::move(spec), {{"cubic", 4, rtt20}}));
  }
  {
    // Wire jitter plus delay-swap reordering in the Core regime: stresses
    // the RFC 6675 scoreboard (spurious dupacks) and GRO flush behaviour.
    ExperimentSpec spec = core_spec();
    spec.scenario.net.impairments.jitter = TimeDelta::micros(200);
    spec.scenario.net.impairments.jitter_dist =
        ImpairmentConfig::JitterDist::kNormal;
    spec.scenario.net.impairments.reorder = 0.02;
    spec.scenario.net.impairments.reorder_delay = TimeDelta::millis(1);
    cells.push_back(
        cell("core-jitter-reorder", std::move(spec), {{"cubic", 8, rtt20}}));
  }
  // AQM cells: pin the qdisc subsystem. Both leave qdisc.seed at 0, so the
  // recorded digests also pin the derive_qdisc_seed path in run_experiment.
  {
    // FQ-CoDel in the Edge regime over an RTT-unfair mix: the per-flow DRR
    // scheduler plus per-flow CoDel should pull JFI toward 1 where plain
    // drop-tail lets the short-RTT pair dominate — the digest pins the
    // bucket hash, the DRR rotation order, and the CoDel control law.
    ExperimentSpec spec = edge_spec();
    spec.scenario.net.qdisc.kind = QdiscKind::kFqCoDel;
    cells.push_back(cell("edge-fqcodel", std::move(spec),
                         {{"cubic", 2, rtt20}, {"cubic", 2, rtt80}}));
  }
  {
    // RED with ECN marking in the Core regime: pins the EWMA average, the
    // probability ladder (count correction + gentle ramp), the dedicated
    // Rng stream, and the full ECN loop (CE -> ECE -> cwnd cut -> CWR).
    ExperimentSpec spec = core_spec();
    spec.scenario.net.qdisc.kind = QdiscKind::kRed;
    spec.scenario.net.qdisc.ecn = true;
    cells.push_back(cell("core-red-ecn", std::move(spec), {{"cubic", 8, rtt20}}));
  }
  // Workload cells: pin the open-loop engine (src/workload/) — the
  // derive_workload_seed stream, the fork/size/gap draw order, app-limited
  // release timing, and the FCT-recorder sketch bytes in the serialized
  // result. Both keep background groups, so dynamic flows are pinned
  // sharing the bottleneck with fixed ones.
  {
    // Short web objects against heavy bulk transfers in the Edge regime:
    // the paper's "millions of users" mix scaled to the golden timeline.
    ExperimentSpec spec = edge_spec();
    spec.workload.arrival = ArrivalKind::kPoisson;
    spec.workload.arrivals_per_sec = 200.0;
    WorkloadClass web;
    web.name = "web";
    web.weight = 0.9;
    web.cca = "cubic";
    web.rtt = rtt20;
    web.size.kind = SizeDistKind::kPareto;
    web.size.pareto_alpha = 1.2;
    web.size.min_segments = 4;
    web.size.max_segments = 400;
    web.app = AppModel::kWebObject;
    web.app_burst_segments = 8;
    web.app_gap = TimeDelta::millis(5);
    WorkloadClass bulk;
    bulk.name = "bulk";
    bulk.weight = 0.1;
    bulk.cca = "cubic";
    bulk.rtt = rtt80;
    bulk.size.kind = SizeDistKind::kLognormal;
    bulk.size.lognormal_mu = 5.0;
    bulk.size.lognormal_sigma = 1.2;
    bulk.size.min_segments = 10;
    bulk.size.max_segments = 10000;
    bulk.app = AppModel::kBulk;
    spec.workload.classes = {web, bulk};
    cells.push_back(cell("edge-web-mix", std::move(spec), {{"cubic", 2, rtt20}}));
  }
  {
    // Open-loop video pacing in the Core regime: chunk releases keep every
    // sender app-limited, pinning the is_app_limited delivery-rate path
    // the BBR family filters on.
    ExperimentSpec spec = core_spec();
    spec.workload.arrival = ArrivalKind::kPoisson;
    spec.workload.arrivals_per_sec = 400.0;
    spec.workload.max_concurrent = 512;
    WorkloadClass video;
    video.name = "video";
    video.weight = 1.0;
    video.cca = "bbr";
    video.rtt = rtt20;
    video.size.kind = SizeDistKind::kFixed;
    video.size.fixed_segments = 96;
    video.size.min_segments = 96;
    video.size.max_segments = 96;
    video.app = AppModel::kVideoChunk;
    video.app_burst_segments = 16;
    video.app_gap = TimeDelta::millis(40);
    spec.workload.classes = {video};
    cells.push_back(
        cell("core-userscale-poisson", std::move(spec), {{"cubic", 4, rtt20}}));
  }
  return cells;
}

uint64_t golden_digest(const ExperimentSpec& spec, const ExperimentResult& result) {
  std::string bytes;
  sweep::put_string(bytes, kGoldenVersionTag);
  bytes += sweep::canonical_spec_bytes(spec);
  bytes += sweep::serialize_result(result);
  return sweep::fnv1a64(bytes);
}

GoldenRecord make_golden_record(const std::string& name, const ExperimentSpec& spec,
                                const ExperimentResult& result) {
  GoldenRecord rec;
  rec.name = name;
  rec.digest = golden_digest(spec, result);
  rec.aggregate_goodput_bps = result.aggregate_goodput_bps;
  rec.utilization = result.utilization;
  rec.dropped_packets = result.queue.dropped_packets;
  for (const auto& flow_log : result.congestion_log) {
    rec.congestion_events += flow_log.size();
  }
  rec.sim_events = result.sim_events;
  rec.flows = result.flows.size();
  return rec;
}

std::string format_goldens(const std::vector<GoldenRecord>& records) {
  std::string out;
  out += "# ";
  out += kGoldenVersionTag;
  out += "\n# name digest goodput_bps utilization drops cong_events sim_events flows\n";
  for (const GoldenRecord& r : records) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s %016" PRIx64 " %.17g %.17g %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 "\n",
                  r.name.c_str(), r.digest, r.aggregate_goodput_bps, r.utilization,
                  r.dropped_packets, r.congestion_events, r.sim_events, r.flows);
    out += line;
  }
  return out;
}

std::vector<GoldenRecord> parse_goldens(const std::string& text) {
  std::vector<GoldenRecord> records;
  std::istringstream in(text);
  std::string line;
  bool version_seen = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.find(kGoldenVersionTag) != std::string::npos) version_seen = true;
      continue;
    }
    GoldenRecord r;
    char name[128];
    char digest_hex[32];
    if (std::sscanf(line.c_str(),
                    "%127s %31s %lg %lg %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64,
                    name, digest_hex, &r.aggregate_goodput_bps, &r.utilization,
                    &r.dropped_packets, &r.congestion_events, &r.sim_events,
                    &r.flows) != 8) {
      throw std::runtime_error("malformed golden line: " + line);
    }
    r.name = name;
    char* end = nullptr;
    r.digest = std::strtoull(digest_hex, &end, 16);
    if (end == digest_hex || *end != '\0') {
      throw std::runtime_error("malformed golden digest: " + line);
    }
    records.push_back(std::move(r));
  }
  if (!records.empty() && !version_seen) {
    throw std::runtime_error(std::string("goldens file lacks version tag ") +
                             kGoldenVersionTag);
  }
  return records;
}

std::vector<GoldenRecord> load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open goldens file: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_goldens(ss.str());
}

void save_goldens(const std::string& path, const std::vector<GoldenRecord>& records) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write goldens file: " + path);
  const std::string text = format_goldens(records);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out.good()) throw std::runtime_error("write failed: " + path);
}

GoldenDiff compare_goldens(const std::vector<GoldenRecord>& expected,
                           const std::vector<GoldenRecord>& actual) {
  GoldenDiff diff;
  diff.ok = true;
  auto find = [](const std::vector<GoldenRecord>& v, const std::string& name)
      -> const GoldenRecord* {
    for (const GoldenRecord& r : v) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  char line[512];
  for (const GoldenRecord& exp : expected) {
    const GoldenRecord* act = find(actual, exp.name);
    if (act == nullptr) {
      diff.ok = false;
      std::snprintf(line, sizeof(line), "MISSING  %s: not produced by this run\n",
                    exp.name.c_str());
      diff.report += line;
      continue;
    }
    if (act->digest != exp.digest) {
      diff.ok = false;
      std::snprintf(line, sizeof(line),
                    "MISMATCH %s: digest %016" PRIx64 " != golden %016" PRIx64
                    " (goodput %.4g vs %.4g bps, drops %" PRIu64 " vs %" PRIu64
                    ", cong_events %" PRIu64 " vs %" PRIu64 ", sim_events %" PRIu64
                    " vs %" PRIu64 ")\n",
                    exp.name.c_str(), act->digest, exp.digest,
                    act->aggregate_goodput_bps, exp.aggregate_goodput_bps,
                    act->dropped_packets, exp.dropped_packets,
                    act->congestion_events, exp.congestion_events, act->sim_events,
                    exp.sim_events);
      diff.report += line;
      continue;
    }
    std::snprintf(line, sizeof(line), "ok       %s\n", exp.name.c_str());
    diff.report += line;
  }
  for (const GoldenRecord& act : actual) {
    if (find(expected, act.name) == nullptr) {
      diff.ok = false;
      std::snprintf(line, sizeof(line),
                    "UNKNOWN  %s: cell not in goldens file (record to add)\n",
                    act.name.c_str());
      diff.report += line;
    }
  }
  return diff;
}

}  // namespace ccas::check
