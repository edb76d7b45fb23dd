// Table-wide properties of the ccas_run / ccas_fleet flag tables: switches
// take no value, every numeric value rejects hostile text, spec_to_cli
// either reproduces or notes every field the cache key encodes, and random
// specs round-trip through spec_to_cli → parse_cli (and parse_fleet_cli)
// byte-identically.
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/cli.h"
#include "src/sweep/spec_hash.h"

namespace ccas {
namespace {

using Args = std::vector<std::string>;

const std::string kGroups = "--groups=cubic:1:20";
const std::string kWorkload = "--workload=poisson:10";
const std::string kClass = "--workload-class=w:1:cubic:20:fixed/10:bulk";

// Parses `flag` in a minimal valid context: fleet flags through
// parse_fleet_cli, workload flags next to the other workload flag.
void parse_in_context(const std::string& flag) {
  auto is = [&flag](const char* prefix) { return flag.rfind(prefix, 0) == 0; };
  if (is("--lease-ttl") || is("--heartbeat") || is("--fleet-wait") ||
      is("--report-only")) {
    Args args = {"--fleet-dir=d", "--lease-ttl=3600", flag};
    if (!is("--report-only")) args.push_back(kGroups);
    (void)parse_fleet_cli(args);
    return;
  }
  if (is("--workload")) {
    Args args = {flag};
    if (!is("--workload=")) args.push_back(kWorkload);
    if (!is("--workload-class")) args.push_back(kClass);
    (void)parse_cli(args);
    return;
  }
  (void)parse_cli({kGroups, "--qdisc=codel", flag});
}

TEST(CliTable, SwitchesTakeNoValue) {
  for (const char* sw : {"--ecn", "--fail-fast", "--report-only", "--no-sack",
                         "--no-delack", "--no-gro", "--perf", "--no-cache"}) {
    EXPECT_NO_THROW(parse_in_context(sw)) << sw;
    for (const char* value : {"=false", "=no", "=1", "="}) {
      EXPECT_THROW(parse_in_context(std::string(sw) + value), std::invalid_argument)
          << sw << value;
    }
  }
  // The value is not silently read as "on" either.
  const CliOptions o = parse_cli({kGroups});
  EXPECT_TRUE(o.sweep.use_cache);
  EXPECT_FALSE(o.perf);
}

// One numeric slot of one flag: '@' marks where the value goes.
struct Slot {
  const char* flag;
  bool integer;
  std::vector<std::string> legal = {};  // hostile values this slot accepts
  const char* good = "1";               // proves the context parses
};

TEST(CliTable, HostileNumericValuesAreRejected) {
  const std::vector<Slot> slots = {
      {"--rate=@", false, {}},
      {"--buffer=@", true, {}},
      {"--groups=cubic:@:20", true, {}},
      {"--groups=cubic:1:@", false, {}},
      {"--codel=@:100", false, {}},
      {"--codel=5:@", false, {}, "200"},
      {"--fq=@:1514", true, {}},
      {"--fq=64:@", true, {}},
      {"--pie=@:16", false, {}},
      {"--pie=15:@", false, {}},
      {"--red=@:0", true, {}},
      {"--red=0:@", true, {}},
      {"--red=0:0:@", false, {}},
      {"--workload=poisson:@", false, {}},
      {"--workload-class=w:@:cubic:20:fixed/10:bulk", false, {}},
      {"--workload-class=w:1:cubic:@:fixed/10:bulk", false, {}},
      {"--workload-class=w:1:cubic:20:pareto/@/4/400:bulk", false, {}},
      {"--workload-class=w:1:cubic:20:pareto/1.2/@/400:bulk", true, {}},
      {"--workload-class=w:1:cubic:20:pareto/1.2/4/@:bulk", true, {}, "400"},
      // mu is the mean of log(segments), so a negative one is legal.
      {"--workload-class=w:1:cubic:20:lognormal/@/1/4/400:bulk", false, {"-1"}},
      {"--workload-class=w:1:cubic:20:lognormal/3/@/4/400:bulk", false},
      {"--workload-class=w:1:cubic:20:lognormal/3/1/@/400:bulk", true, {}},
      {"--workload-class=w:1:cubic:20:lognormal/3/1/4/@:bulk", true, {}, "400"},
      {"--workload-class=w:1:cubic:20:fixed/@:bulk", true, {}},
      {"--workload-class=w:1:cubic:20:fixed/10:rr/@/5", true, {}},
      {"--workload-class=w:1:cubic:20:fixed/10:rr/4/@", false, {}},
      {"--workload-max=@", true, {}},
      {"--stagger=@", false, {}},
      {"--warmup=@", false, {}},
      {"--measure=@", false, {}},
      {"--seed=@", true, {}},
      {"--jitter=@", false, {}},
      {"--loss=@", false, {}},
      {"--ge-loss=@:0.3:0.5", false, {}},
      {"--ge-loss=0.01:@:0.5", false, {}},
      {"--ge-loss=0.01:0.3:@", false, {}},
      {"--ge-loss=0.01:0.3:0.5:@", false, {}},
      {"--dup=@", false, {}},
      {"--reorder=@:1", false, {}},
      {"--reorder=0.01:@", false, {}},
      {"--link-jitter=@", false, {}},
      {"--flap=@:5", false, {}},
      {"--flap=1:@", false, {}, "2"},
      {"--rate-change=@:100", false, {}},
      {"--rate-change=1:@", false, {}},
      {"--buffer-change=@:1000", false, {}},
      {"--buffer-change=1:@", true, {}},
      {"--rto-slack=@", false, {}},
      {"--trace=@", false, {}},
      {"--seeds=@", true, {}},
      {"--seeds=1,@", true, {}},
      {"--jobs=@", true, {}},
      {"--cell-timeout=@", false, {}},
      {"--cell-events=@", true, {}},
      {"--cell-rss=@", false, {}},
      {"--retries=@", true, {}},
      {"--max-failures=@", true, {}},
      {"--lease-ttl=@", false, {}},
      {"--heartbeat=@", false, {}},
      {"--fleet-wait=@", false, {}},
  };
  std::vector<std::string> hostile = {"nan", "inf", "-inf", "1e300", "-1",
                                      "99999999999999999999", "5x", "", " 5", "0x"};
  for (const Slot& slot : slots) {
    std::string good = slot.flag;
    good.replace(good.find('@'), 1, slot.good);
    EXPECT_NO_THROW(parse_in_context(good)) << good;
    std::vector<std::string> values = hostile;
    if (slot.integer) values.emplace_back("2.5");
    for (const std::string& value : values) {
      bool legal = false;
      for (const std::string& ok : slot.legal) legal = legal || ok == value;
      std::string flag = slot.flag;
      flag.replace(flag.find('@'), 1, value);
      if (legal) {
        EXPECT_NO_THROW(parse_in_context(flag)) << flag;
      } else {
        EXPECT_THROW(parse_in_context(flag), std::invalid_argument) << flag;
      }
    }
  }
}

TEST(CliTable, LegalBoundaryValuesKeepParsing) {
  for (const char* flag :
       {"--stagger=0", "--warmup=0", "--trace=0", "--rto-slack=0", "--jitter=0",
        "--link-jitter=0:normal", "--reorder=0:0", "--seed=0", "--seeds=0,9",
        "--seed=9223372036854775807", "--red=0:0", "--retries=0", "--retries=16",
        "--loss=0", "--loss=1", "--measure=1e-9", "--rate=1e-6",
        "--buffer-change=0:1", "--flap=0:1e-9",
        "--workload-class=w:1:cubic:20:lognormal/-1/1/4/400:bulk",
        "--workload-class=w:1:cubic:20:fixed/10:web/4/0", "--fleet-wait=0",
        "--lease-ttl=0.002", "--heartbeat=0.001"}) {
    EXPECT_NO_THROW(parse_in_context(flag)) << flag;
  }
  EXPECT_EQ(parse_cli({kGroups, "--seed=9223372036854775807"}).spec.seed,
            9223372036854775807ULL);
  EXPECT_EQ(parse_cli({kGroups, "--measure=1e-9"}).spec.scenario.measure,
            TimeDelta::nanos(1));
}

TEST(CliTable, SettingAppliesBeforeEveryOtherFlag) {
  const CliOptions o = parse_cli(
      {kGroups, "--qdisc=codel", "--jitter=7", "--warmup=3", "--setting=edge"});
  EXPECT_EQ(o.spec.scenario.setting, Setting::kEdgeScale);
  EXPECT_EQ(o.spec.scenario.net.qdisc.kind, QdiscKind::kCoDel);
  EXPECT_EQ(o.spec.scenario.net.jitter, TimeDelta::micros(7));
  EXPECT_EQ(o.spec.scenario.warmup, TimeDelta::seconds(3));
}

// ---------------------------------------------------------------------------
// spec_to_cli completeness: one mutator per field that canonical_spec_bytes
// encodes (src/sweep/spec_hash.cc). Each mutated spec must re-parse to the
// same bytes or say in `notes` why it cannot.
// ---------------------------------------------------------------------------

ExperimentSpec completeness_base() {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.groups.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  spec.scenario.net.qdisc.kind = QdiscKind::kCoDel;  // encodes the qdisc block
  ImpairmentConfig& imp = spec.scenario.net.impairments;
  imp.loss = 0.01;  // encodes the impairment block
  imp.ge.p_bad_to_good = 0.3;
  LinkFault rate;
  rate.at = Time::seconds_f(1.0);
  rate.kind = LinkFault::Kind::kRate;
  rate.rate = DataRate::mbps(5);
  LinkFault buffer;
  buffer.at = Time::seconds_f(2.0);
  buffer.kind = LinkFault::Kind::kBuffer;
  buffer.buffer_bytes = 50'000;
  imp.faults = {rate, buffer};
  WorkloadSpec& wl = spec.workload;
  wl.arrivals_per_sec = 20.0;
  WorkloadClass web;
  web.name = "web";
  web.weight = 0.5;
  web.app = AppModel::kRequestResponse;
  web.app_burst_segments = 4;
  web.app_gap = TimeDelta::millis(5);
  WorkloadClass bulk;
  bulk.name = "bulk";
  bulk.weight = 0.5;
  bulk.size.kind = SizeDistKind::kLognormal;
  wl.classes = {web, bulk};
  return spec;
}

using S = ExperimentSpec;
using Mutator = std::function<void(S&)>;

std::vector<std::pair<const char*, Mutator>> field_mutators() {
  auto net = [](S& s) -> DumbbellConfig& { return s.scenario.net; };
  auto imp = [](S& s) -> ImpairmentConfig& {
    return s.scenario.net.impairments;
  };
  auto qd = [](S& s) -> QdiscConfig& { return s.scenario.net.qdisc; };
  auto web = [](S& s) -> WorkloadClass& { return s.workload.classes[0]; };
  auto bulk = [](S& s) -> WorkloadClass& { return s.workload.classes[1]; };
  return {
      {"setting", [](S& s) { s.scenario.setting = Setting::kCoreScale; }},
      {"net.rate_bps", [=](S& s) { net(s).bottleneck_rate = DataRate::bps(7'777'777); }},
      {"net.buffer", [=](S& s) { net(s).buffer_bytes = 123'457; }},
      {"net.pairs", [=](S& s) { net(s).num_pairs = 3; }},
      {"net.edge_rate_bps", [=](S& s) { net(s).edge_rate = DataRate::gbps(1); }},
      {"net.edge_buffer", [=](S& s) { net(s).edge_buffer_bytes += 1; }},
      {"net.jitter_ns", [=](S& s) { net(s).jitter = TimeDelta::nanos(333'333); }},
      {"net.jitter_seed", [=](S& s) { net(s).jitter_seed += 1; }},
      {"imp.loss", [=](S& s) { imp(s).loss = 0.0123; }},
      {"imp.ge.p_gb", [=](S& s) { imp(s).ge.p_good_to_bad = 0.01; }},
      {"imp.ge.p_bg", [=](S& s) { imp(s).ge.p_bad_to_good = 0.2; }},
      {"imp.ge.loss_bad", [=](S& s) { imp(s).ge.loss_bad = 0.5; }},
      {"imp.ge.loss_good", [=](S& s) { imp(s).ge.loss_good = 0.002; }},
      {"imp.dup", [=](S& s) { imp(s).duplicate = 0.002; }},
      {"imp.reorder", [=](S& s) { imp(s).reorder = 0.01; }},
      {"imp.reorder_delay_ns",
       [=](S& s) { imp(s).reorder_delay = TimeDelta::nanos(1'234'567); }},
      {"imp.jitter_ns", [=](S& s) { imp(s).jitter = TimeDelta::nanos(45'678); }},
      {"imp.jitter_dist",
       [=](S& s) { imp(s).jitter_dist = ImpairmentConfig::JitterDist::kNormal; }},
      {"imp.seed", [=](S& s) { imp(s).seed = 99; }},
      {"imp.faults", [=](S& s) {
         LinkFault down;
         down.at = Time::seconds_f(3.0);
         LinkFault up;
         up.at = Time::seconds_f(4.0);
         up.kind = LinkFault::Kind::kUp;
         imp(s).faults.push_back(down);
         imp(s).faults.push_back(up);
       }},
      {"imp.f.at_ns", [=](S& s) { imp(s).faults[0].at = Time::nanos(1'000'000'007); }},
      {"imp.f.kind", [=](S& s) { imp(s).faults[1].kind = LinkFault::Kind::kDown; }},
      {"imp.f.rate_bps", [=](S& s) { imp(s).faults[0].rate = DataRate::bps(5'000'017); }},
      {"imp.f.buffer", [=](S& s) { imp(s).faults[1].buffer_bytes = 98'765; }},
      {"qd.kind", [=](S& s) { qd(s).kind = QdiscKind::kFqCoDel; }},
      {"qd.ecn", [=](S& s) { qd(s).ecn = true; }},
      {"qd.codel_target_ns",
       [=](S& s) { qd(s).codel_target = TimeDelta::nanos(7'000'001); }},
      {"qd.codel_interval_ns",
       [=](S& s) { qd(s).codel_interval = TimeDelta::millis(140); }},
      {"qd.fq_flows", [=](S& s) { qd(s).fq_flows = 128; }},
      {"qd.fq_quantum", [=](S& s) { qd(s).fq_quantum = 3028; }},
      {"qd.pie_target_ns", [=](S& s) { qd(s).pie_target = TimeDelta::millis(20); }},
      {"qd.pie_tupdate_ns", [=](S& s) { qd(s).pie_tupdate = TimeDelta::millis(30); }},
      {"qd.pie_alpha", [=](S& s) { qd(s).pie_alpha = 0.25; }},
      {"qd.pie_beta", [=](S& s) { qd(s).pie_beta = 2.5; }},
      {"qd.pie_mark_ecnth", [=](S& s) { qd(s).pie_mark_ecnth = 0.2; }},
      {"qd.red_wq", [=](S& s) { qd(s).red_wq = 0.004; }},
      {"qd.red_min", [=](S& s) { qd(s).red_min_bytes = 1000; }},
      {"qd.red_max", [=](S& s) { qd(s).red_max_bytes = 9000; }},
      {"qd.red_max_p", [=](S& s) { qd(s).red_max_p = 0.05; }},
      {"qd.red_gentle", [=](S& s) { qd(s).red_gentle = false; }},
      {"qd.seed", [=](S& s) { qd(s).seed = 5; }},
      {"stagger_ns", [](S& s) { s.scenario.stagger = TimeDelta::nanos(123'456'789); }},
      {"warmup_ns", [](S& s) { s.scenario.warmup = TimeDelta::nanos(987'654'321); }},
      {"measure_ns", [](S& s) { s.scenario.measure = TimeDelta::nanos(2'000'000'003); }},
      {"groups",
       [](S& s) { s.groups.push_back(FlowGroup{"bbr", 1, TimeDelta::millis(40)}); }},
      {"g.cca", [](S& s) { s.groups[0].cca = "newreno"; }},
      {"g.count", [](S& s) { s.groups[0].count = 7; }},
      {"g.rtt_ns", [](S& s) { s.groups[0].rtt = TimeDelta::nanos(20'123'457); }},
      {"seed", [](S& s) { s.seed = 424242; }},
      {"tcp.iw", [](S& s) { s.tcp.initial_cwnd = 4; }},
      {"tcp.max_window", [](S& s) { s.tcp.max_window = 1000; }},
      {"tcp.dup_thresh", [](S& s) { s.tcp.dup_thresh = 5; }},
      {"tcp.sack", [](S& s) { s.tcp.sack_enabled = false; }},
      {"tcp.data_segments", [](S& s) { s.tcp.data_segments = 100; }},
      {"tcp.min_rto_ns", [](S& s) { s.tcp.rtt.min_rto = TimeDelta::millis(1); }},
      {"tcp.max_rto_ns", [](S& s) { s.tcp.rtt.max_rto = TimeDelta::seconds(5); }},
      {"tcp.initial_rto_ns",
       [](S& s) { s.tcp.rtt.initial_rto = TimeDelta::millis(300); }},
      {"tcp.rto_slack_ns",
       [](S& s) { s.tcp.rto_rearm_slack = TimeDelta::nanos(123'457); }},
      {"rcv.delack", [](S& s) { s.receiver.delayed_ack = false; }},
      {"rcv.delack_segs", [](S& s) { s.receiver.delack_segment_threshold = 3; }},
      {"rcv.delack_timeout_ns",
       [](S& s) { s.receiver.delack_timeout = TimeDelta::millis(10); }},
      {"rcv.gro", [](S& s) { s.receiver.gro_enabled = false; }},
      {"rcv.gro_flush_ns",
       [](S& s) { s.receiver.gro_flush_timeout = TimeDelta::micros(50); }},
      {"rcv.gro_max_segs", [](S& s) { s.receiver.gro_max_segments = 10; }},
      {"conv.window_ns", [](S& s) { s.convergence_window = TimeDelta::seconds(2); }},
      {"conv.poll_ns", [](S& s) { s.convergence_poll = TimeDelta::millis(500); }},
      {"conv.tolerance", [](S& s) { s.convergence_tolerance = 0.02; }},
      {"drop_log", [](S& s) { s.record_drop_log = false; }},
      {"cong_log", [](S& s) { s.record_congestion_log = true; }},
      {"trace.interval_ns",
       [](S& s) { s.trace_interval = TimeDelta::nanos(500'000'009); }},
      {"trace.flows", [](S& s) { s.trace_flows = {0}; }},
      {"shards", [](S& s) { s.shards = 2; }},
      {"wl.arrival", [](S& s) { s.workload.arrival = ArrivalKind::kDeterministic; }},
      {"wl.rate", [](S& s) { s.workload.arrivals_per_sec = 33.3; }},
      {"wl.max_concurrent", [](S& s) { s.workload.max_concurrent = 500; }},
      {"wl.classes", [=](S& s) {
         WorkloadClass extra = web(s);
         extra.name = "extra";
         web(s).weight = 0.25;
         extra.weight = 0.25;
         s.workload.classes.push_back(extra);
       }},
      {"wl.c.name", [=](S& s) { web(s).name = "browse"; }},
      {"wl.c.weight", [=](S& s) {
         web(s).weight = 0.3;
         bulk(s).weight = 0.7;
       }},
      {"wl.c.cca", [=](S& s) { web(s).cca = "bbr"; }},
      {"wl.c.rtt_ns", [=](S& s) { web(s).rtt = TimeDelta::nanos(30'000'001); }},
      {"wl.c.size.kind", [=](S& s) { bulk(s).size.kind = SizeDistKind::kPareto; }},
      {"wl.c.size.min", [=](S& s) { web(s).size.min_segments = 3; }},
      {"wl.c.size.max", [=](S& s) { web(s).size.max_segments = 999; }},
      {"wl.c.size.alpha", [=](S& s) { web(s).size.pareto_alpha = 1.7; }},
      {"wl.c.size.alpha (inert)", [=](S& s) { bulk(s).size.pareto_alpha = 1.7; }},
      {"wl.c.size.mu", [=](S& s) { bulk(s).size.lognormal_mu = -0.5; }},
      {"wl.c.size.mu (inert)", [=](S& s) { web(s).size.lognormal_mu = 4.0; }},
      {"wl.c.size.sigma", [=](S& s) { bulk(s).size.lognormal_sigma = 1.5; }},
      {"wl.c.size.fixed", [=](S& s) { web(s).size.fixed_segments = 77; }},
      {"wl.c.size.cdf", [=](S& s) {
         bulk(s).size.kind = SizeDistKind::kEmpirical;
         bulk(s).size.empirical = {{0.5, 10}, {1.0, 100}};
       }},
      {"wl.c.app", [=](S& s) { web(s).app = AppModel::kWebObject; }},
      {"wl.c.app_burst", [=](S& s) { web(s).app_burst_segments = 9; }},
      {"wl.c.app_burst (inert)", [=](S& s) { bulk(s).app_burst_segments = 9; }},
      {"wl.c.app_gap_ns", [=](S& s) { web(s).app_gap = TimeDelta::nanos(5'000'003); }},
  };
}

TEST(SpecCliCompleteness, EveryEncodedFieldRoundTripsOrIsNoted) {
  const ExperimentSpec base = completeness_base();
  const SpecCliRendering base_rendering = spec_to_cli(base);
  EXPECT_TRUE(base_rendering.notes.empty());
  EXPECT_EQ(sweep::canonical_spec_bytes(parse_cli(base_rendering.args).spec),
            sweep::canonical_spec_bytes(base));

  for (const auto& [field, mutate] : field_mutators()) {
    ExperimentSpec spec = base;
    mutate(spec);
    ASSERT_NE(sweep::canonical_spec_bytes(spec), sweep::canonical_spec_bytes(base))
        << field << ": the mutator must change an encoded field";
    const SpecCliRendering rendering = spec_to_cli(spec);
    if (!rendering.notes.empty()) continue;
    std::string replayed;
    try {
      replayed = sweep::canonical_spec_bytes(parse_cli(rendering.args).spec);
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << field << ": rendering does not re-parse: " << e.what();
      continue;
    }
    EXPECT_EQ(replayed, sweep::canonical_spec_bytes(spec))
        << field << " is dropped without a note: " << spec_to_cli_command(spec);
  }
}

// ---------------------------------------------------------------------------
// Round-trip property: random specs drawn from every renderable flag's
// value domain, with nanosecond and bit values the renderer has to nudge.
// ---------------------------------------------------------------------------

class SpecGen {
 public:
  explicit SpecGen(uint64_t seed) : rng_(seed) {}

  ExperimentSpec next() {
    ExperimentSpec s;
    s.scenario =
        Scenario::for_setting(coin() ? Setting::kEdgeScale : Setting::kCoreScale);
    const int groups = static_cast<int>(pick(0, 3));
    for (int i = 0; i < groups; ++i) {
      const int flows = static_cast<int>(pick(1, 5000));
      s.groups.push_back(FlowGroup{cca(), flows, ns(1'000, 1e9)});
    }
    DumbbellConfig& net = s.scenario.net;
    if (coin()) net.bottleneck_rate = DataRate::bps(pick(1, 100'000'000'000));
    if (coin()) net.buffer_bytes = pick(1, 10'000'000'000);
    if (coin()) net.jitter = coin() ? TimeDelta::zero() : ns(1, 1e7);
    s.scenario.stagger = coin() ? TimeDelta::zero() : ns(1, 1e10);
    s.scenario.warmup = coin() ? TimeDelta::zero() : ns(1, 1e11);
    s.scenario.measure = ns(1, 1e11);
    s.seed = pick(0, INT64_MAX);

    QdiscConfig& qd = net.qdisc;
    qd.kind = static_cast<QdiscKind>(pick(0, 4));
    qd.ecn = qd.enabled() && coin();
    if (coin()) {
      qd.codel_target = ns(1'000, 5e7);
      qd.codel_interval = qd.codel_target + ns(1, 1e9);
    }
    if (coin()) {
      qd.fq_flows = static_cast<uint32_t>(pick(1, 65'536));
      qd.fq_quantum = pick(1, 100'000);
    }
    if (coin()) {
      qd.pie_target = ns(1'000, 1e9);
      qd.pie_tupdate = ns(1'000, 1e9);
    }
    if (coin()) {
      qd.red_min_bytes = pick(1, 1'000'000);
      qd.red_max_bytes = qd.red_min_bytes + pick(1, 1'000'000);
      if (coin()) qd.red_max_p = unit();
    }

    ImpairmentConfig& imp = net.impairments;
    if (coin()) imp.loss = unit();
    if (coin()) {
      imp.ge.p_good_to_bad = unit();
      imp.ge.p_bad_to_good = unit();
      imp.ge.loss_bad = unit();
      if (coin()) imp.ge.loss_good = unit();
    }
    if (coin()) imp.duplicate = unit();
    if (coin()) imp.reorder = unit();
    if (coin()) imp.reorder_delay = ns(1, 1e9);
    if (coin()) imp.jitter = coin() ? TimeDelta::zero() : ns(1, 1e7);
    if (coin()) imp.jitter_dist = ImpairmentConfig::JitterDist::kNormal;
    // Strictly increasing times across all three fault flags, as the
    // merged schedule requires; a flap window takes two of them.
    Time at = Time::zero();
    for (int i = static_cast<int>(pick(0, 6)); i > 0; --i) {
      at = at + ns(1, 1e10);
      LinkFault f;
      f.at = at;
      f.kind = static_cast<LinkFault::Kind>(pick(0, 3));
      if (f.kind == LinkFault::Kind::kUp) continue;
      if (f.kind == LinkFault::Kind::kRate) {
        f.rate = DataRate::bps(pick(1, 100'000'000'000));
      }
      if (f.kind == LinkFault::Kind::kBuffer) f.buffer_bytes = pick(1, 1'000'000'000);
      imp.faults.push_back(f);
      if (f.kind != LinkFault::Kind::kDown) continue;
      at = at + ns(1, 1e10);
      LinkFault up;
      up.at = at;
      up.kind = LinkFault::Kind::kUp;
      imp.faults.push_back(up);
    }

    s.tcp.sack_enabled = coin();
    s.receiver.delayed_ack = coin();
    s.receiver.gro_enabled = coin();
    if (coin()) s.tcp.rto_rearm_slack = ns(1, 1e8);
    if (coin()) s.trace_interval = ns(1, 1e10);
    // shards stays 1: the retired field renders as a note, not a flag.
    if (coin() || s.groups.empty()) workload(s.workload);
    return s;
  }

 private:
  void workload(WorkloadSpec& wl) {
    wl.arrival = coin() ? ArrivalKind::kPoisson : ArrivalKind::kDeterministic;
    wl.arrivals_per_sec = unit() * 1e5 + 1e-3;
    if (coin()) wl.max_concurrent = count(1, INT64_MAX);
    const int classes = static_cast<int>(pick(1, 3));
    double left = 1.0;
    for (int i = 0; i < classes; ++i) {
      WorkloadClass c;
      c.name = "c" + std::to_string(i);
      c.weight = i + 1 == classes ? left : left * (0.1 + 0.8 * unit());
      left -= c.weight;
      c.cca = cca();
      c.rtt = ns(1'000, 1e9);
      c.size.kind = static_cast<SizeDistKind>(pick(0, 2));
      if (c.size.kind == SizeDistKind::kFixed) {
        c.size.fixed_segments = count(1, 1'000'000);
        c.size.min_segments = c.size.max_segments = c.size.fixed_segments;
      } else {
        c.size.min_segments = count(1, 100);
        c.size.max_segments = c.size.min_segments + count(0, 1'000'000);
      }
      if (c.size.kind == SizeDistKind::kPareto) c.size.pareto_alpha = 0.5 + 2.5 * unit();
      if (c.size.kind == SizeDistKind::kLognormal) {
        c.size.lognormal_mu = -2.0 + 12.0 * unit();
        c.size.lognormal_sigma = 0.1 + 3.0 * unit();
      }
      c.app = static_cast<AppModel>(pick(0, 3));
      if (c.app != AppModel::kBulk) {
        c.app_burst_segments = count(1, 100);
        c.app_gap = ns(c.app == AppModel::kVideoChunk ? 1 : 0, 1e9);
      }
      wl.classes.push_back(c);
    }
  }

  bool coin() { return (rng_() & 1) != 0; }
  int64_t pick(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }
  uint64_t count(int64_t lo, int64_t hi) { return static_cast<uint64_t>(pick(lo, hi)); }
  double unit() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }
  TimeDelta ns(int64_t lo, double hi) {
    return TimeDelta::nanos(pick(lo, static_cast<int64_t>(hi)));
  }
  std::string cca() {
    static const char* const kCcas[] = {"newreno", "cubic", "bbr",
                                        "bbr2",    "vegas", "copa"};
    return kCcas[pick(0, 5)];
  }

  std::mt19937_64 rng_;
};

TEST(SpecCliProperty, RandomSpecsRoundTripExactly) {
  SpecGen gen(20261017);
  for (int i = 0; i < 600; ++i) {
    const ExperimentSpec spec = gen.next();
    const std::string bytes = sweep::canonical_spec_bytes(spec);
    const SpecCliRendering rendering = spec_to_cli(spec);
    ASSERT_TRUE(rendering.notes.empty())
        << "spec " << i << ": unexpected note: " << rendering.notes.front();
    const std::string command = spec_to_cli_command(spec);
    CliOptions parsed;
    ASSERT_NO_THROW(parsed = parse_cli(rendering.args))
        << "spec " << i << ": " << command;
    ASSERT_EQ(sweep::canonical_spec_bytes(parsed.spec), bytes)
        << "spec " << i << ": " << command;

    Args fleet = {"--fleet-dir=d", "--lease-ttl=10", "--worker-id=w7"};
    fleet.insert(fleet.end(), rendering.args.begin(), rendering.args.end());
    if (spec.trace_interval > TimeDelta::zero()) {
      EXPECT_THROW(parse_fleet_cli(fleet), std::invalid_argument) << command;
      continue;
    }
    FleetCli cli;
    ASSERT_NO_THROW(cli = parse_fleet_cli(fleet)) << "spec " << i << ": " << command;
    EXPECT_EQ(sweep::canonical_spec_bytes(cli.run.spec), bytes) << command;
    EXPECT_EQ(cli.fleet.worker_id, "w7");
  }
}

}  // namespace
}  // namespace ccas
