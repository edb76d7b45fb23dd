// Property tests for the open-loop workload engine (src/workload/):
// ~200 random configurations covering distribution moments, Poisson
// arrival statistics, same-seed byte-identical replay, serial-vs-sharded
// and jobs-level result equality, and conservation under the auditor.
// Also finite senders, and flow churn — the arrivals and departures the
// paper's Limitations section sets aside — run as a one-class workload.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cca/new_reno.h"
#include "src/harness/runner.h"
#include "src/net/delay_line.h"
#include "src/sweep/executor.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/util/rng.h"
#include "src/workload/spec.h"

namespace ccas {
namespace {

// ------------------------------------------ size-distribution moments ----

SizeDist random_pareto(Rng& rng) {
  SizeDist d;
  d.kind = SizeDistKind::kPareto;
  d.pareto_alpha = 1.1 + rng.next_double() * 1.9;  // [1.1, 3.0]
  d.min_segments = 4 + static_cast<uint64_t>(rng.next_double() * 46.0);
  d.max_segments =
      d.min_segments * (10 + static_cast<uint64_t>(rng.next_double() * 490.0));
  return d;
}

SizeDist random_lognormal(Rng& rng) {
  SizeDist d;
  d.kind = SizeDistKind::kLognormal;
  // Parameters keep the [min, max] clamp and the floor-discretization
  // small next to the mean (see analytic_mean_segments' contract).
  d.lognormal_mu = 2.5 + rng.next_double() * 2.5;   // mean >= e^2.5 ~ 12
  d.lognormal_sigma = 0.3 + rng.next_double() * 0.9;
  d.min_segments = 1;
  d.max_segments = 1u << 20;
  return d;
}

SizeDist random_empirical(Rng& rng) {
  SizeDist d;
  d.kind = SizeDistKind::kEmpirical;
  double cum = 0.0;
  const int steps = 2 + static_cast<int>(rng.next_double() * 6.0);
  uint64_t segments = 1;
  for (int i = 0; i < steps; ++i) {
    cum += (1.0 - cum) * (0.2 + 0.6 * rng.next_double());
    segments += 1 + static_cast<uint64_t>(rng.next_double() * 500.0);
    d.empirical.push_back({i == steps - 1 ? 1.0 : cum, segments});
  }
  d.empirical.back().cum_prob = 1.0;
  d.min_segments = d.empirical.front().segments;
  d.max_segments = d.empirical.back().segments;
  return d;
}

TEST(WorkloadProperty, SampledMomentsMatchAnalytic) {
  Rng meta(20260808);
  int configs = 0;
  for (int i = 0; i < 150; ++i) {
    SizeDist d;
    const double pick = meta.next_double();
    if (pick < 0.4) {
      d = random_pareto(meta);
    } else if (pick < 0.8) {
      d = random_lognormal(meta);
    } else {
      d = random_empirical(meta);
    }
    ASSERT_NO_THROW(d.validate());
    ++configs;

    Rng rng(1000 + static_cast<uint64_t>(i));
    const int n = 20000;
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      const uint64_t s = d.sample(rng);
      ASSERT_GE(s, d.min_segments);
      ASSERT_LE(s, d.max_segments);
      sum += static_cast<double>(s);
    }
    const double mean = sum / n;
    const double analytic = d.analytic_mean_segments();
    ASSERT_GT(analytic, 0.0);
    // Sampling error (heavy tails!) + floor-discretization (< 1 segment)
    // + the Irwin-Hall tail truncation; 15% relative plus one segment of
    // absolute slack holds for every parameter box above.
    EXPECT_NEAR(mean, analytic, 0.15 * analytic + 1.0)
        << "config " << i << " kind " << static_cast<int>(d.kind);
  }
  EXPECT_EQ(configs, 150);
}

// ----------------------------------------------- arrival-process stats ----

ExperimentSpec tiny_workload_spec(uint64_t seed) {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::mbps(50);
  spec.scenario.net.buffer_bytes = 250'000;
  spec.scenario.stagger = TimeDelta::zero();
  spec.scenario.warmup = TimeDelta::millis(200);
  spec.scenario.measure = TimeDelta::millis(1500);
  spec.seed = seed;
  WorkloadClass c;
  c.name = "w";
  c.weight = 1.0;
  c.cca = "cubic";
  c.rtt = TimeDelta::millis(10);
  c.size.kind = SizeDistKind::kFixed;
  c.size.fixed_segments = 2;
  c.size.min_segments = 2;
  c.size.max_segments = 2;
  spec.workload.classes.push_back(c);
  spec.workload.arrival = ArrivalKind::kPoisson;
  spec.workload.arrivals_per_sec = 400.0;
  return spec;
}

uint64_t total_arrivals(const ExperimentResult& r) {
  uint64_t n = 0;
  for (const WorkloadClassResult& c : r.workload_classes) n += c.arrivals;
  return n;
}

TEST(WorkloadProperty, PoissonCountsAreDispersedLikePoisson) {
  // For a Poisson process the arrival count over a fixed horizon has
  // variance equal to its mean (index of dispersion 1; equivalently the
  // inter-arrival CV is 1). Deterministic arrivals have dispersion ~0.
  std::vector<double> counts;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const ExperimentSpec spec = tiny_workload_spec(seed);
    counts.push_back(static_cast<double>(total_arrivals(run_experiment(spec))));
  }
  double mean = 0.0;
  for (const double c : counts) mean += c;
  mean /= static_cast<double>(counts.size());
  double var = 0.0;
  for (const double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(counts.size() - 1);
  // Expected count = rate * horizon = 400/s * 1.7s = 680.
  EXPECT_NEAR(mean, 680.0, 60.0);
  const double dispersion = var / mean;
  EXPECT_GT(dispersion, 0.4);
  EXPECT_LT(dispersion, 1.8);
}

TEST(WorkloadProperty, DeterministicArrivalsAreExactlyPaced) {
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    ExperimentSpec spec = tiny_workload_spec(seed);
    spec.workload.arrival = ArrivalKind::kDeterministic;
    const uint64_t n = total_arrivals(run_experiment(spec));
    // First arrival at t=0, then every 2.5ms until the 1.7s horizon.
    EXPECT_GE(n, 680u);
    EXPECT_LE(n, 681u);
  }
}

// --------------------------------------------------- replay and shards ----

// Random mixed config: optional background groups, 1-3 classes spanning
// the app models and size kinds, random rates and caps.
ExperimentSpec random_workload_spec(Rng& rng, bool with_groups) {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::mbps(40);
  spec.scenario.net.buffer_bytes = 200'000;
  spec.scenario.stagger = with_groups ? TimeDelta::millis(100) : TimeDelta::zero();
  spec.scenario.warmup = TimeDelta::millis(300);
  spec.scenario.measure = TimeDelta::seconds(2);
  spec.seed = 1 + static_cast<uint64_t>(rng.next_double() * 1e6);
  if (with_groups) {
    spec.groups.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
    spec.groups.push_back(FlowGroup{"newreno", 2, TimeDelta::millis(40)});
  }
  spec.workload.arrival =
      rng.next_double() < 0.5 ? ArrivalKind::kPoisson : ArrivalKind::kDeterministic;
  spec.workload.arrivals_per_sec = 30.0 + rng.next_double() * 120.0;
  if (rng.next_double() < 0.3) spec.workload.max_concurrent = 32;

  const int nclasses = 1 + static_cast<int>(rng.next_double() * 3.0);
  const char* ccas[] = {"cubic", "newreno", "bbr", "bbr2"};
  for (int c = 0; c < nclasses; ++c) {
    WorkloadClass cls;
    cls.name = "c" + std::to_string(c);
    cls.weight = 1.0 / nclasses;
    cls.cca = ccas[static_cast<int>(rng.next_double() * 4.0)];
    cls.rtt = TimeDelta::millis(10 + static_cast<int64_t>(rng.next_double() * 70.0));
    const double sz = rng.next_double();
    if (sz < 0.4) {
      cls.size = random_pareto(rng);
      cls.size.max_segments = std::min<uint64_t>(cls.size.max_segments, 2000);
    } else if (sz < 0.7) {
      cls.size = random_lognormal(rng);
      cls.size.max_segments = 2000;
    } else {
      cls.size.kind = SizeDistKind::kFixed;
      cls.size.fixed_segments = 5 + static_cast<uint64_t>(rng.next_double() * 95.0);
      cls.size.min_segments = cls.size.fixed_segments;
      cls.size.max_segments = cls.size.fixed_segments;
    }
    const double app = rng.next_double();
    if (app < 0.4) {
      cls.app = AppModel::kBulk;
    } else if (app < 0.6) {
      cls.app = AppModel::kRequestResponse;
      cls.app_burst_segments = 4;
      cls.app_gap = TimeDelta::millis(10);
    } else if (app < 0.8) {
      cls.app = AppModel::kWebObject;
      cls.app_burst_segments = 8;
      cls.app_gap = TimeDelta::millis(5);
    } else {
      cls.app = AppModel::kVideoChunk;
      cls.app_burst_segments = 16;
      cls.app_gap = TimeDelta::millis(40);
    }
    spec.workload.classes.push_back(cls);
  }
  // Float sums can miss 1.0 by an ulp; validate() tolerates 1e-9 and the
  // last class absorbs the remainder exactly like the CLI path.
  double sum = 0.0;
  for (size_t c = 0; c + 1 < spec.workload.classes.size(); ++c) {
    sum += spec.workload.classes[c].weight;
  }
  spec.workload.classes.back().weight = 1.0 - sum;
  return spec;
}

TEST(WorkloadProperty, SameSeedReplayIsByteIdentical) {
  Rng meta(99);
  for (int i = 0; i < 8; ++i) {
    const ExperimentSpec spec = random_workload_spec(meta, i % 2 == 0);
    const std::string a = sweep::serialize_result(run_experiment(spec));
    const std::string b = sweep::serialize_result(run_experiment(spec));
    EXPECT_EQ(a, b) << "config " << i;
    EXPECT_FALSE(a.empty());
  }
}

TEST(WorkloadProperty, SerialAndShardedRunsAreByteIdentical) {
  Rng meta(777);
  for (int i = 0; i < 4; ++i) {
    ExperimentSpec spec = random_workload_spec(meta, /*with_groups=*/true);
    spec.shards = 1;
    const std::string serial = sweep::serialize_result(run_experiment(spec));
    for (const int shards : {2, 3, 4}) {
      if (shards > spec.total_flows()) continue;
      spec.shards = shards;
      ExperimentResult r = run_experiment(spec);
      // The shards field enters the canonical spec encoding, so compare
      // result payloads (what the digest wall hashes), not cache keys.
      EXPECT_EQ(serial, sweep::serialize_result(r))
          << "config " << i << " seed " << spec.seed << " shards " << shards;
    }
  }
}

TEST(WorkloadProperty, JobsLevelDoesNotChangeResults) {
  // Same 4-cell sweep at --jobs=1 and --jobs=4: byte-identical payloads.
  Rng meta(31337);
  sweep::SweepSpec grid;
  grid.name = "workload-jobs-prop";
  for (int i = 0; i < 4; ++i) {
    grid.add_cell("cell" + std::to_string(i),
                  random_workload_spec(meta, i % 2 == 0));
  }
  sweep::SweepOptions one;
  one.jobs = 1;
  one.progress = false;
  sweep::SweepOptions four;
  four.jobs = 4;
  four.progress = false;
  const auto a = sweep::SweepExecutor(one).run(grid);
  const auto b = sweep::SweepExecutor(four).run(grid);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].status, sweep::CellStatus::kOk);
    ASSERT_EQ(b[i].status, sweep::CellStatus::kOk);
    EXPECT_EQ(sweep::serialize_result(a[i].result),
              sweep::serialize_result(b[i].result))
        << grid.cells[i].name;
  }
}

TEST(WorkloadProperty, ConservationHoldsUnderAudit) {
  // The invariant auditor (CCAS_CHECK=1 path) throws on any sequence or
  // conservation violation; dynamic app-limited flows must pass it, with
  // and without loss/reordering in the way.
  Rng meta(4242);
  for (int i = 0; i < 3; ++i) {
    ExperimentSpec spec = random_workload_spec(meta, i > 0);
    spec.audit = true;
    if (i == 2) {
      spec.scenario.net.impairments.loss = 0.005;
      spec.scenario.net.impairments.reorder = 0.005;
      spec.scenario.net.impairments.reorder_delay = TimeDelta::millis(2);
    }
    ExperimentResult r;
    ASSERT_NO_THROW(r = run_experiment(spec)) << "config " << i;
    uint64_t completed = 0;
    uint64_t arrivals = 0;
    uint64_t rejected = 0;
    uint64_t abandoned = 0;
    for (const WorkloadClassResult& c : r.workload_classes) {
      completed += c.completed;
      arrivals += c.arrivals;
      rejected += c.rejected;
      abandoned += c.abandoned;
    }
    // Every arrival is rejected, completed, or still in flight at the end.
    EXPECT_EQ(arrivals, rejected + completed + abandoned);
    EXPECT_GT(completed, 0u);
  }
}

// ---------------------------------------------------- finite senders ----

class Forward : public PacketSink {
 public:
  void accept(Packet&& pkt) override { target_->accept(std::move(pkt)); }
  void set_target(PacketSink* t) { target_ = t; }

 private:
  PacketSink* target_ = nullptr;
};

TEST(FiniteFlow, CompletesAndQuiesces) {
  Simulator sim;
  Forward to_sender;
  DelayLine rev(sim, TimeDelta::millis(5), &to_sender);
  TcpReceiver rcv(sim, 0, &rev);
  DelayLine fwd(sim, TimeDelta::millis(5), &rcv);
  TcpSenderConfig cfg;
  cfg.data_segments = 137;
  TcpSender snd(sim, 0, std::make_unique<NewReno>(), &fwd, cfg);
  to_sender.set_target(&snd);

  int completions = 0;
  snd.set_completion_callback([&] { ++completions; });
  snd.start();
  sim.run();  // the event queue must drain completely: full quiescence
  EXPECT_TRUE(snd.complete());
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rcv.rcv_nxt(), 137u);
  EXPECT_EQ(snd.stats().segments_sent, 137u);  // no losses on this path
  EXPECT_EQ(snd.inflight(), 0u);
}

TEST(FiniteFlow, InfiniteByDefault) {
  TcpSenderConfig cfg;
  EXPECT_EQ(cfg.data_segments, 0u);
  Simulator sim;
  Forward to_sender;
  DelayLine rev(sim, TimeDelta::millis(5), &to_sender);
  TcpReceiver rcv(sim, 0, &rev);
  DelayLine fwd(sim, TimeDelta::millis(5), &rcv);
  cfg.max_window = 64;
  TcpSender snd(sim, 0, std::make_unique<NewReno>(), &fwd, cfg);
  to_sender.set_target(&snd);
  snd.start();
  sim.run_until(Time::seconds_f(2));
  EXPECT_FALSE(snd.complete());
  EXPECT_GT(rcv.rcv_nxt(), 1000u);
}

// ------------------------------------------------------------- churn ----
// Flow churn is one bulk class of bounded-Pareto sizes arriving Poisson,
// optionally over fixed background groups.

ExperimentSpec churn_spec() {
  ExperimentSpec spec;
  spec.scenario.net.bottleneck_rate = DataRate::mbps(50);
  spec.scenario.net.buffer_bytes = 500'000;
  spec.scenario.stagger = TimeDelta::millis(100);
  spec.scenario.warmup = TimeDelta::seconds(1);
  spec.scenario.measure = TimeDelta::seconds(10);
  spec.seed = 11;
  WorkloadClass cls;
  cls.name = "churn";
  cls.cca = "newreno";
  cls.size.kind = SizeDistKind::kPareto;
  cls.size.min_segments = 5;
  cls.size.max_segments = 2000;
  spec.workload.classes.push_back(cls);
  spec.workload.arrivals_per_sec = 30.0;
  return spec;
}

WorkloadClass fixed_size_class(const std::string& name, uint64_t segments,
                               double weight) {
  WorkloadClass cls;
  cls.name = name;
  cls.weight = weight;
  cls.cca = "newreno";
  cls.size.kind = SizeDistKind::kFixed;
  cls.size.fixed_segments = segments;
  cls.size.min_segments = segments;
  cls.size.max_segments = segments;
  return cls;
}

TEST(Churn, FlowsArriveCompleteAndRespectSizeBounds) {
  const ExperimentResult r = run_experiment(churn_spec());
  ASSERT_EQ(r.workload_classes.size(), 1u);
  const WorkloadClassResult& c = r.workload_classes[0];
  const uint64_t started = c.arrivals - c.rejected;
  // ~30/s over ~11s, no cap.
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_GT(started, 200u);
  EXPECT_LT(started, 500u);
  EXPECT_GT(c.completed, started / 2);
  EXPECT_EQ(c.arrivals, c.rejected + c.completed + c.abandoned);
  // Every completed flow carried between 5 and 2000 segments.
  EXPECT_GE(c.completed_segments, 5 * c.completed);
  EXPECT_LE(c.completed_segments, 2000 * c.completed);
  EXPECT_GT(c.p50_fct_s, 0.0);
  EXPECT_LE(c.p50_fct_s, c.p99_fct_s);
  EXPECT_LT(c.p999_fct_s, 12.0);
  EXPECT_GT(c.mean_fct_s, 0.0);
  EXPECT_GE(c.mean_fct_s, c.p50_fct_s * 0.5);
}

TEST(Churn, HeavyTailMeansSmallFlowsFinishFaster) {
  // A two-point heavy tail: most flows are mice, most bytes are elephants.
  ExperimentSpec spec = churn_spec();
  spec.scenario.measure = TimeDelta::seconds(20);
  spec.workload.classes = {fixed_size_class("mice", 10, 0.9),
                           fixed_size_class("elephants", 500, 0.1)};
  const ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.workload_classes.size(), 2u);
  const WorkloadClassResult& mice = r.workload_classes[0];
  const WorkloadClassResult& elephants = r.workload_classes[1];
  ASSERT_GT(mice.completed, 0u);
  ASSERT_GT(elephants.completed, 0u);
  EXPECT_LT(mice.mean_fct_s, elephants.mean_fct_s);
  EXPECT_LT(mice.p50_fct_s, elephants.p50_fct_s);
}

TEST(Churn, DeterministicPerSeed) {
  const std::string a = sweep::serialize_result(run_experiment(churn_spec()));
  const std::string b = sweep::serialize_result(run_experiment(churn_spec()));
  EXPECT_EQ(a, b);
  ExperimentSpec other = churn_spec();
  other.seed = 12;
  EXPECT_NE(a, sweep::serialize_result(run_experiment(other)));
}

TEST(Churn, BackgroundFlowsCoexist) {
  ExperimentSpec spec = churn_spec();
  spec.groups.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  const ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_GT(r.groups[0].aggregate_goodput_bps, 1e6);  // the long flows got bandwidth
  EXPECT_GT(r.workload_classes[0].completed, 0u);     // and so did the churn
  // Long flows are measured over the measurement window, churn flows over
  // the whole run; together they should roughly fill the payload capacity.
  const double payload_capacity =
      static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()) *
      static_cast<double>(kMssBytes) / static_cast<double>(kDataPacketBytes);
  const double util =
      (r.aggregate_goodput_bps + r.workload_goodput_bps) / payload_capacity;
  EXPECT_GT(util, 0.5);
  EXPECT_LT(util, 1.1);
}

TEST(Churn, ConcurrencyCapRejectsArrivals) {
  ExperimentSpec spec = churn_spec();
  spec.workload.max_concurrent = 1;
  spec.workload.arrivals_per_sec = 200.0;
  spec.workload.classes = {fixed_size_class("slow", 5000, 1.0)};  // cap binds
  const ExperimentResult r = run_experiment(spec);
  EXPECT_GT(r.workload_classes[0].rejected, 0u);
}

TEST(Churn, RecyclesDepartedFlowSlots) {
  // Steady-state churn must run on recycled slabs: most completed flows
  // are reaped before the run ends (the rest completed within the final
  // grace window), and most arrivals after warm-up reuse a parked slab.
  // Under ASan this doubles as a use-after-free check on the reaper's
  // grace/timer-entry safety argument.
  const ExperimentResult r = run_experiment(churn_spec());
  const WorkloadClassResult& c = r.workload_classes[0];
  const uint64_t started = c.arrivals - c.rejected;
  EXPECT_GT(r.slabs_recycled, c.completed / 2);
  EXPECT_LE(r.slabs_recycled, c.completed);
  EXPECT_GT(r.slab_reuses, started / 2);
  EXPECT_LE(r.slab_reuses, r.slabs_recycled);
  // Observational counters: not serialized, so a cache hit reports zero.
  const auto cached = sweep::deserialize_result(sweep::serialize_result(r));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->slabs_recycled, 0u);
  EXPECT_EQ(cached->slab_reuses, 0u);
}

TEST(Churn, RecyclingUnderImpairmentsAndBackground) {
  // Harder teardown conditions: loss and reordering leave retransmission
  // timers and stray duplicates behind departed flows; the reaper must
  // still only recycle quiescent slots (ASan-visible if it does not).
  ExperimentSpec spec = churn_spec();
  spec.groups.push_back(FlowGroup{"cubic", 1, TimeDelta::millis(30)});
  spec.scenario.net.impairments.loss = 0.01;
  spec.scenario.net.impairments.reorder = 0.01;
  const ExperimentResult r = run_experiment(spec);
  EXPECT_GT(r.workload_classes[0].completed, 0u);
  EXPECT_GT(r.slabs_recycled, 0u);
}

// ----------------------------------------------- encoding differential ----

TEST(WorkloadSpecBytes, DisabledWorkloadKeepsSpecBytes) {
  // A workload block that is not enabled must leave the canonical spec
  // encoding untouched — that is the invariant the 12 pre-workload golden
  // digests and every cache key rest on.
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.groups.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  const std::string before = sweep::canonical_spec_bytes(spec);

  ExperimentSpec poked = spec;
  poked.workload.max_concurrent = 500;  // inert without a rate
  EXPECT_EQ(sweep::canonical_spec_bytes(poked), before);

  poked = spec;
  WorkloadClass c;
  poked.workload.classes.push_back(c);  // classes without a rate: disabled
  EXPECT_EQ(sweep::canonical_spec_bytes(poked), before);

  // Enabling it appends (only appends: the shared prefix is unchanged).
  poked.workload.arrivals_per_sec = 100.0;
  const std::string enabled = sweep::canonical_spec_bytes(poked);
  EXPECT_GT(enabled.size(), before.size());
  EXPECT_EQ(enabled.compare(0, before.size(), before), 0);
}

// ------------------------------------------------- spec-level validation --
// The CLI layer rejects most malformed inputs before the spec ever sees
// them (tests/cli_test.cc); these hit WorkloadSpec/WorkloadClass/SizeDist
// ::validate() directly, the contract programmatic users (benches, the
// stress grid) rely on.

WorkloadClass minimal_valid_class() {
  WorkloadClass c;
  c.size.kind = SizeDistKind::kFixed;
  c.size.fixed_segments = 4;
  c.size.min_segments = 4;
  c.size.max_segments = 4;
  return c;
}

TEST(WorkloadSpecValidate, SizeDistRejectsBadParameters) {
  SizeDist d;
  d.min_segments = 10;
  d.max_segments = 4;
  EXPECT_THROW(d.validate(), std::invalid_argument);  // max < min

  d = SizeDist{};
  d.pareto_alpha = -1.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);

  d = SizeDist{};
  d.kind = SizeDistKind::kLognormal;
  d.lognormal_sigma = 0.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);

  // Empirical: sizes must be >= 1 and non-decreasing.
  d = SizeDist{};
  d.kind = SizeDistKind::kEmpirical;
  d.empirical = {{0.5, 20}, {1.0, 10}};
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(WorkloadSpecValidate, ClassRejectsBadParameters) {
  WorkloadClass c = minimal_valid_class();
  EXPECT_NO_THROW(c.validate());

  c.weight = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = minimal_valid_class();
  c.rtt = TimeDelta::zero();
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = minimal_valid_class();
  c.app = AppModel::kWebObject;
  c.app_burst_segments = 0;  // non-bulk app models need a burst size
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = minimal_valid_class();
  c.app = AppModel::kWebObject;
  c.app_burst_segments = 4;
  c.app_gap = TimeDelta::millis(-1);
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = minimal_valid_class();
  c.app = AppModel::kVideoChunk;
  c.app_burst_segments = 4;
  c.app_gap = TimeDelta::zero();  // open-loop chunk cadence must be > 0
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(WorkloadSpecValidate, SpecRejectsBadTopLevel) {
  WorkloadSpec w;
  w.arrivals_per_sec = -5.0;
  EXPECT_THROW(w.validate(), std::invalid_argument);

  w = WorkloadSpec{};
  w.arrivals_per_sec = 100.0;  // a rate with nothing to send
  EXPECT_THROW(w.validate(), std::invalid_argument);
}

TEST(WorkloadSpecValidate, CdfFileSkipsBlankLinesAndRejectsGarbage) {
  const std::string dir = ::testing::TempDir();
  auto write_file = [&](const std::string& name, const std::string& body) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path);
    out << body;
    return path;
  };
  // Whitespace-only lines (spaces, tabs) are skipped like empty ones.
  const std::vector<EmpiricalPoint> points = parse_empirical_cdf_file(
      write_file("wl-cdf-blank.txt", "   \n\t\n0.5 10\n\n1.0 40\n"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[1].segments, 40u);
  // A non-numeric probability column is a parse error, not a skip.
  EXPECT_THROW((void)parse_empirical_cdf_file(
                   write_file("wl-cdf-garbage.txt", "x 10\n1.0 40\n")),
               std::invalid_argument);
}

TEST(WorkloadSpecValidate, AnalyticMeanCoversEveryKind) {
  // Pareto at alpha == 1 takes the log-form branch of the closed form;
  // check it against a numeric Riemann sum of the truncated density.
  SizeDist d;
  d.pareto_alpha = 1.0;
  d.min_segments = 4;
  d.max_segments = 400;
  const double lo = 4.0;
  const double hi = 400.0;
  double numeric = 0.0;
  const int steps = 200000;
  for (int i = 0; i < steps; ++i) {
    const double x = lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                              static_cast<double>(steps);
    // Truncated Pareto(alpha=1) density: (lo / x^2) / (1 - lo/hi).
    numeric += (lo / (x * x)) / (1.0 - lo / hi) * x * (hi - lo) /
               static_cast<double>(steps);
  }
  EXPECT_NEAR(d.analytic_mean_segments(), numeric,
              0.01 * numeric);

  d = SizeDist{};
  d.kind = SizeDistKind::kFixed;
  d.fixed_segments = 37;
  EXPECT_DOUBLE_EQ(d.analytic_mean_segments(), 37.0);
}

}  // namespace
}  // namespace ccas
