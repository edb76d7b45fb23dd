// Property tests for the conservative parallel engine (src/sim/parallel/):
// randomized differential equivalence against the serial engine.
//
//   * ~200 random configs across CCA mix x qdisc x impairments:
//     a sharded run (random shard count) must produce byte-identical
//     serialized results to the serial run — flows, groups, queue stats,
//     drop log, goodput, sim_events, everything the result cache would
//     store — with the invariant auditor live on both sides (a violation
//     throws and fails the test), and equal dispatch totals in the
//     aggregated kernel profile (event-count parity: the delivery stage
//     schedules exactly one event per handoff, like the serial netem).
//   * The fabric itself: lookahead floor, worker-exception delivery, and
//     a jobs x shards cross-product (sweep workers running sharded cells
//     concurrently) staying byte-identical.
//   * Churn subset: Poisson arrivals of core-resident workload flows (one
//     bounded-Pareto class) over sharded background flows, at shards 2, 3
//     and 4; the serialized result must match the serial run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/runner.h"
#include "src/net/qdisc/qdisc.h"
#include "src/sim/budget.h"
#include "src/sim/parallel/fabric.h"
#include "src/sweep/result_cache.h"
#include "src/util/rng.h"
#include "src/workload/spec.h"

namespace ccas {
namespace {

const char* kCcas[] = {"newreno", "cubic", "bbr", "bbr2", "vegas", "copa"};

// A short, fully random experiment: 2-9 flows over 1-3 CCA groups, random
// bottleneck, random qdisc (half the time), random impairments (half the
// time). Durations are compressed so the 200-config sweep stays in test
// time, but long enough to cross slow start, loss recovery and (for BBR)
// several ProbeBW cycles.
ExperimentSpec random_spec(Rng& meta) {
  ExperimentSpec spec;
  spec.scenario.net.bottleneck_rate =
      DataRate::mbps(20 + static_cast<int64_t>(meta.next_double() * 180.0));
  spec.scenario.net.buffer_bytes =
      150'000 + static_cast<int64_t>(meta.next_double() * 1'350'000.0);
  spec.scenario.stagger = TimeDelta::millis(50 + static_cast<int64_t>(
                                                     meta.next_double() * 150.0));
  spec.scenario.warmup = TimeDelta::millis(100 + static_cast<int64_t>(
                                                     meta.next_double() * 200.0));
  spec.scenario.measure = TimeDelta::millis(200 + static_cast<int64_t>(
                                                      meta.next_double() * 300.0));
  const int n_groups = 1 + static_cast<int>(meta.next_double() * 3.0) % 3;
  for (int g = 0; g < n_groups; ++g) {
    FlowGroup group;
    group.cca = kCcas[static_cast<size_t>(meta.next_double() * 6.0) % 6];
    group.count = 2 + static_cast<int>(meta.next_double() * 2.0) % 2;
    group.rtt = TimeDelta::millis(5 + static_cast<int64_t>(meta.next_double() * 55.0));
    spec.groups.push_back(group);
  }
  if (meta.next_double() < 0.5) {
    static const QdiscKind kinds[] = {QdiscKind::kCoDel, QdiscKind::kFqCoDel,
                                      QdiscKind::kPie, QdiscKind::kRed};
    spec.scenario.net.qdisc.kind = kinds[static_cast<size_t>(
        meta.next_double() * 4.0) % 4];
    spec.scenario.net.qdisc.ecn = meta.next_double() < 0.5;
  }
  if (meta.next_double() < 0.5) {
    auto& imp = spec.scenario.net.impairments;
    if (meta.next_double() < 0.5) imp.loss = meta.next_double() * 0.01;
    if (meta.next_double() < 0.3) {
      imp.ge.p_good_to_bad = meta.next_double() * 0.01;
      imp.ge.p_bad_to_good = 0.1 + meta.next_double() * 0.4;
      imp.ge.loss_bad = 0.2 + meta.next_double() * 0.5;
    }
    if (meta.next_double() < 0.3) imp.duplicate = meta.next_double() * 0.005;
    if (meta.next_double() < 0.3) {
      imp.reorder = meta.next_double() * 0.02;
      imp.reorder_delay = TimeDelta::micros(200 + static_cast<int64_t>(
                                                      meta.next_double() * 1800.0));
    }
    if (meta.next_double() < 0.5) {
      imp.jitter = TimeDelta::micros(static_cast<int64_t>(meta.next_double() * 300.0));
      imp.jitter_dist = meta.next_double() < 0.5
                            ? ImpairmentConfig::JitterDist::kUniform
                            : ImpairmentConfig::JitterDist::kNormal;
    }
  }
  spec.tcp.sack_enabled = meta.next_double() < 0.9;
  spec.receiver.delayed_ack = meta.next_double() < 0.9;
  spec.seed = static_cast<uint64_t>(meta.next_double() * 1e9) + 1;
  spec.audit = true;  // auditor throws on any invariant violation
  return spec;
}

// Runs `spec` serially and at a random shard count in [2, min(8, flows)],
// asserting byte-identical serialized results and equal dispatch totals.
void check_one(ExperimentSpec spec, Rng& meta, int index) {
  const int flows = spec.total_flows();
  ASSERT_GE(flows, 2);
  const int shards =
      2 + static_cast<int>(meta.next_double() * 7.0) % std::max(1, std::min(8, flows) - 1);
  SCOPED_TRACE("config " + std::to_string(index) + ": seed " +
               std::to_string(spec.seed) + ", " + std::to_string(flows) +
               " flows, shards " + std::to_string(shards));

  spec.shards = 1;
  const ExperimentResult serial = run_experiment(spec);
  spec.shards = shards;
  const ExperimentResult sharded = run_experiment(spec);

  // The serialized payload is everything the result cache persists:
  // per-flow measurements, groups, queue stats, drop log, goodput,
  // utilization, convergence, sim_events, trace and congestion log.
  EXPECT_EQ(sweep::serialize_result(serial), sweep::serialize_result(sharded));

  // Event-count parity, per tag: the sharded engines together dispatch
  // exactly the serial event population.
  const SimProfile& sp = serial.sim_profile;
  const SimProfile& pp = sharded.sim_profile;
  EXPECT_EQ(sp.events_dispatched, pp.events_dispatched);
  for (size_t t = 0; t < sp.events_by_tag.size(); ++t) {
    EXPECT_EQ(sp.events_by_tag[t], pp.events_by_tag[t]) << "tag " << t;
  }
  EXPECT_EQ(sp.impair_drops, pp.impair_drops);
  EXPECT_EQ(sp.impair_dups, pp.impair_dups);
  EXPECT_EQ(sp.impair_delays, pp.impair_delays);
  EXPECT_EQ(sp.qdisc_head_drops, pp.qdisc_head_drops);
  EXPECT_EQ(sp.qdisc_marks, pp.qdisc_marks);
  EXPECT_EQ(static_cast<uint64_t>(shards), pp.shard_domains);
  EXPECT_GT(pp.shard_windows, 0u);
}

// The 200 random configs, split into four shards of 50 so ctest can run
// them in parallel.
void run_batch(uint64_t meta_seed, int count) {
  Rng meta(meta_seed);
  for (int i = 0; i < count; ++i) {
    check_one(random_spec(meta), meta, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelProperty, RandomConfigsMatchSerialBatch1) { run_batch(0xA11CE501, 50); }
TEST(ParallelProperty, RandomConfigsMatchSerialBatch2) { run_batch(0xA11CE502, 50); }
TEST(ParallelProperty, RandomConfigsMatchSerialBatch3) { run_batch(0xA11CE503, 50); }
TEST(ParallelProperty, RandomConfigsMatchSerialBatch4) { run_batch(0xA11CE504, 50); }

// --- Budgets on sharded runs: the fabric enforces the exact-event and
// RSS ceilings at window barriers (summed across engines) and installs
// the cancellation token on every engine so a watchdog firing mid-window
// surfaces from a worker thread through the barrier rethrow.

ExperimentSpec budget_spec() {
  ExperimentSpec spec;
  FlowGroup group;
  group.cca = "cubic";
  group.count = 4;
  group.rtt = TimeDelta::millis(20);
  spec.groups.push_back(group);
  spec.scenario.stagger = TimeDelta::millis(50);
  spec.scenario.warmup = TimeDelta::millis(100);
  spec.scenario.measure = TimeDelta::millis(300);
  spec.seed = 11;
  spec.shards = 2;
  return spec;
}

template <typename Fn>
BudgetExceeded::Kind expect_budget_throw(Fn&& fn) {
  try {
    fn();
  } catch (const BudgetExceeded& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected BudgetExceeded";
  return BudgetExceeded::Kind::kWallClock;
}

TEST(ParallelBudget, EventCeilingThrowsSharded) {
  SimBudget budget;
  budget.max_events = 5000;
  const auto kind = expect_budget_throw(
      [&] { run_experiment(budget_spec(), &budget); });
  EXPECT_EQ(kind, BudgetExceeded::Kind::kSimEvents);
}

TEST(ParallelBudget, RssCeilingThrowsSharded) {
  SimBudget budget;
  budget.max_rss_bytes = 1;  // below even the per-flow harness estimate
  const auto kind = expect_budget_throw(
      [&] { run_experiment(budget_spec(), &budget); });
  EXPECT_EQ(kind, BudgetExceeded::Kind::kRssEstimate);
}

TEST(ParallelBudget, CancelTokenThrowsSharded) {
  // Pre-set token: the first poll — on a domain worker inside the first
  // window, or the fabric's own barrier check — must abandon the run.
  std::atomic<bool> cancel{true};
  SimBudget budget;
  budget.cancel = &cancel;
  const auto kind = expect_budget_throw(
      [&] { run_experiment(budget_spec(), &budget); });
  EXPECT_EQ(kind, BudgetExceeded::Kind::kWallClock);
}

TEST(ParallelBudget, GenerousBudgetStaysByteIdentical) {
  // A budget that never trips is observational: the sharded budgeted run
  // must serialize byte-identically to the serial unbudgeted run.
  ExperimentSpec spec = budget_spec();
  spec.shards = 1;
  const std::string serial = sweep::serialize_result(run_experiment(spec));
  std::atomic<bool> cancel{false};
  SimBudget budget;
  budget.max_events = 100'000'000;
  budget.max_rss_bytes = int64_t{1} << 40;
  budget.cancel = &cancel;
  spec.shards = 2;
  EXPECT_EQ(serial, sweep::serialize_result(run_experiment(spec, &budget)));
}

TEST(ParallelFabric, RejectsSubNanosecondLookahead) {
  // The runner rejects tiny RTTs with its own message; the fabric guards
  // independently for direct API users.
  Simulator core;
  ShardPlan plan;
  plan.shards = 2;
  plan.sharded_flows = 4;
  EXPECT_THROW(ShardFabric(core, plan, TimeDelta::nanos(1)),
               std::invalid_argument);
  EXPECT_THROW(
      [] {
        ExperimentSpec spec = budget_spec();
        spec.groups[0].rtt = TimeDelta::nanos(2);  // lookahead 1ns
        run_experiment(spec);
      }(),
      std::invalid_argument);
}

TEST(ParallelFabric, WorkerExceptionSurfacesAtBarrier) {
  // A throw on a domain worker thread (here: a scheduled function; in
  // production an audit violation or tripped per-engine budget) must be
  // captured and rethrown from run_to on the fabric's thread.
  Simulator core;
  ShardPlan plan;
  plan.shards = 2;
  plan.sharded_flows = 4;
  ShardFabric fabric(core, plan, TimeDelta::millis(1));
  fabric.domain_sim(1).schedule_fn_at(
      Time::zero() + TimeDelta::micros(10),
      [] { throw std::runtime_error("domain worker failure"); });
  EXPECT_THROW(fabric.run_to(Time::zero() + TimeDelta::millis(5)),
               std::runtime_error);
}

// Churn: sharded background flows under Poisson arrivals of dynamic
// (core-resident) flows — one bounded-Pareto bulk class of random CCA and
// rate, short runs, 2-4 background flows of one random CCA.
TEST(ParallelProperty, ChurnMatchesSerial) {
  Rng meta(0xC0FFEE11);
  auto pick_cca = [&] { return kCcas[static_cast<size_t>(meta.next_double() * 6.0) % 6]; };
  for (int i = 0; i < 20; ++i) {
    ExperimentSpec spec;
    spec.scenario.net.bottleneck_rate =
        DataRate::mbps(20 + static_cast<int64_t>(meta.next_double() * 80.0));
    spec.scenario.net.buffer_bytes = 500'000;
    spec.scenario.stagger = TimeDelta::millis(50);
    spec.scenario.warmup = TimeDelta::millis(150);
    spec.scenario.measure = TimeDelta::millis(400);
    WorkloadClass cls;
    cls.cca = pick_cca();
    cls.size.kind = SizeDistKind::kPareto;
    cls.size.min_segments = 5;
    cls.size.max_segments = 5'000;
    spec.workload.classes.push_back(cls);
    spec.workload.arrivals_per_sec = 20.0 + meta.next_double() * 60.0;
    const int n_bg = 2 + static_cast<int>(meta.next_double() * 3.0) % 3;
    spec.groups.push_back(FlowGroup{
        pick_cca(), n_bg,
        TimeDelta::millis(10 + static_cast<int64_t>(meta.next_double() * 30.0))});
    spec.seed = 1000 + static_cast<uint64_t>(meta.next_double() * 1e6);

    spec.shards = 1;
    const std::string serial = sweep::serialize_result(run_experiment(spec));
    for (const int shards : {2, 3, 4}) {
      if (shards > spec.total_flows()) continue;
      spec.shards = shards;
      EXPECT_EQ(serial, sweep::serialize_result(run_experiment(spec)))
          << "churn config " << i << " seed " << spec.seed << " shards " << shards;
    }
  }
}

// Sweep workers and event domains compose: the same cells through the
// multi-threaded sweep path with sharded cells must reproduce the serial
// single-job results byte for byte.
TEST(ParallelProperty, JobsTimesShardsIsByteIdentical) {
  Rng meta(0xBEEF7007);
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back(random_spec(meta));

  std::vector<std::string> baseline;
  for (ExperimentSpec spec : specs) {
    spec.shards = 1;
    baseline.push_back(sweep::serialize_result(run_experiment(spec)));
  }
  // Sharded cells dispatched from several sweep worker threads at once:
  // each cell's fabric owns its own worker pool; nothing may bleed.
  std::vector<std::string> sharded(specs.size());
  std::vector<std::thread> workers;
  for (size_t w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < specs.size(); i += 3) {
        ExperimentSpec spec = specs[i];
        spec.shards = 2 + static_cast<int>(i % 2);
        if (spec.shards > spec.total_flows()) spec.shards = 2;
        sharded[i] = sweep::serialize_result(run_experiment(spec));
      }
    });
  }
  for (auto& t : workers) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(baseline[i], sharded[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace ccas
