#include "src/harness/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/cca/cca.h"
#include "src/sweep/spec_hash.h"

namespace ccas {
namespace {

TEST(Cli, ParsesFullConfiguration) {
  const CliOptions o = parse_cli(
      {"--setting=edge", "--groups=bbr:1:20,newreno:16:100", "--rate=400",
       "--buffer=1000000", "--stagger=1", "--warmup=5", "--measure=30",
       "--seed=9", "--jitter=250", "--trace=0.5", "--csv=out"});
  EXPECT_EQ(o.spec.scenario.net.bottleneck_rate, DataRate::mbps(400));
  EXPECT_EQ(o.spec.scenario.net.buffer_bytes, 1'000'000);
  ASSERT_EQ(o.spec.groups.size(), 2u);
  EXPECT_EQ(o.spec.groups[0].cca, "bbr");
  EXPECT_EQ(o.spec.groups[0].count, 1);
  EXPECT_EQ(o.spec.groups[0].rtt, TimeDelta::millis(20));
  EXPECT_EQ(o.spec.groups[1].cca, "newreno");
  EXPECT_EQ(o.spec.groups[1].count, 16);
  EXPECT_EQ(o.spec.groups[1].rtt, TimeDelta::millis(100));
  EXPECT_EQ(o.spec.scenario.stagger, TimeDelta::seconds(1));
  EXPECT_EQ(o.spec.scenario.warmup, TimeDelta::seconds(5));
  EXPECT_EQ(o.spec.scenario.measure, TimeDelta::seconds(30));
  EXPECT_EQ(o.spec.seed, 9u);
  EXPECT_EQ(o.spec.scenario.net.jitter, TimeDelta::micros(250));
  EXPECT_EQ(o.spec.trace_interval, TimeDelta::millis(500));
  EXPECT_EQ(o.csv_prefix, "out");
}

TEST(Cli, DefaultsToCoreScale) {
  const CliOptions o = parse_cli({"--groups=cubic:10:20"});
  EXPECT_EQ(o.spec.scenario.net.bottleneck_rate, DataRate::gbps(10));
  EXPECT_EQ(o.spec.scenario.net.buffer_bytes, 375'000'000);
  EXPECT_TRUE(o.spec.tcp.sack_enabled);
  EXPECT_TRUE(o.spec.receiver.delayed_ack);
  EXPECT_TRUE(o.spec.receiver.gro_enabled);
  EXPECT_EQ(o.spec.trace_interval, TimeDelta::zero());
}

TEST(Cli, OverridesApplyRegardlessOfFlagOrder) {
  const CliOptions o =
      parse_cli({"--rate=50", "--groups=newreno:1:20", "--setting=edge"});
  // --rate wins even though --setting came later.
  EXPECT_EQ(o.spec.scenario.net.bottleneck_rate, DataRate::mbps(50));
}

TEST(Cli, FeatureToggles) {
  const CliOptions o = parse_cli(
      {"--groups=newreno:1:20", "--no-sack", "--no-delack", "--no-gro"});
  EXPECT_FALSE(o.spec.tcp.sack_enabled);
  EXPECT_FALSE(o.spec.receiver.delayed_ack);
  EXPECT_FALSE(o.spec.receiver.gro_enabled);
}

TEST(Cli, Rejections) {
  EXPECT_THROW(parse_cli({}), std::invalid_argument);  // no groups
  EXPECT_THROW(parse_cli({"--groups=nosuchcca:1:20"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:0:20"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:-5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--setting=banana"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--bogus=1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--rate=abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--buffer=-3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"positional"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--warmup"}),
               std::invalid_argument);
}

TEST(Cli, SweepFlags) {
  const CliOptions o =
      parse_cli({"--groups=newreno:1:20", "--seeds=1,2,3", "--jobs=4",
                 "--cache-dir=cachedir", "--no-cache"});
  EXPECT_EQ(o.seeds, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(o.sweep.jobs, 4);
  EXPECT_EQ(o.sweep.cache_dir, "cachedir");
  EXPECT_FALSE(o.sweep.use_cache);
}

TEST(Cli, SweepDefaults) {
  const CliOptions o = parse_cli({"--groups=newreno:1:20"});
  EXPECT_TRUE(o.seeds.empty());
  EXPECT_TRUE(o.sweep.cache_dir.empty());
  EXPECT_TRUE(o.sweep.use_cache);
}

TEST(Cli, SweepRejections) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--jobs=-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seeds="}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seeds=1,x"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cache-dir="}),
               std::invalid_argument);
}

TEST(Cli, JobsRequiresPositiveInteger) {
  // --jobs=0 is NOT "hardware concurrency" (that's the no-flag default):
  // it must error rather than silently run at full parallelism.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--jobs=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--jobs=2.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--jobs=1e2"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--jobs=abc"}),
               std::invalid_argument);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20", "--jobs=1"}).sweep.jobs, 1);
  // Absent flag: stays 0, resolved to hardware concurrency by the executor.
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20"}).sweep.jobs, 0);
}

TEST(Cli, SeedsRejectNegativeAndFractionalEntries) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seeds=-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seeds=1,-2,3"}),
               std::invalid_argument);
  // "1.5" truncating to seed 1 would silently run a different experiment.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seeds=1.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seed=-7"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--seed=7.5"}),
               std::invalid_argument);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20", "--seeds=0,2"}).seeds,
            (std::vector<uint64_t>{0, 2}));
}

TEST(Cli, NoCacheEnvTakesPrecedenceOverCacheDirFlag) {
  // CCAS_NO_CACHE must win over --cache-dir deterministically: the dir is
  // still recorded, but the cache is neither read nor written.
  setenv("CCAS_NO_CACHE", "1", 1);
  const CliOptions off = parse_cli({"--groups=cubic:1:20", "--cache-dir=d"});
  EXPECT_FALSE(off.sweep.use_cache);
  EXPECT_EQ(off.sweep.cache_dir, "d");
  // CCAS_NO_CACHE=0 and empty both mean "not set".
  setenv("CCAS_NO_CACHE", "0", 1);
  EXPECT_TRUE(parse_cli({"--groups=cubic:1:20", "--cache-dir=d"}).sweep.use_cache);
  setenv("CCAS_NO_CACHE", "", 1);
  EXPECT_TRUE(parse_cli({"--groups=cubic:1:20", "--cache-dir=d"}).sweep.use_cache);
  // Anything but 0 or 1 is refused, as --no-cache=false is: "false" used
  // to switch the cache off.
  for (const char* bad : {"false", "true", "2", "yes", " 1", "01"}) {
    setenv("CCAS_NO_CACHE", bad, 1);
    EXPECT_THROW(parse_cli({"--groups=cubic:1:20"}), std::invalid_argument) << bad;
    EXPECT_THROW(parse_figures_cli({"--figure=f"}, {"f"}), std::invalid_argument)
        << bad;
  }
  unsetenv("CCAS_NO_CACHE");
  EXPECT_TRUE(parse_cli({"--groups=cubic:1:20", "--cache-dir=d"}).sweep.use_cache);
}

TEST(Cli, JobsEnvIsAsStrictAsTheFlag) {
  setenv("CCAS_JOBS", "3", 1);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20"}).sweep.jobs, 3);
  EXPECT_EQ(parse_figures_cli({"--figure=f"}, {"f"}).sweep.jobs, 3);
  // An explicit flag wins over the environment default.
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20", "--jobs=2"}).sweep.jobs, 2);
  // "3x" used to run 3 workers and "abc" all cores.
  for (const char* bad : {"3x", "abc", "0", "-1", "2.5", "1e2"}) {
    setenv("CCAS_JOBS", bad, 1);
    EXPECT_THROW(parse_cli({"--groups=cubic:1:20"}), std::invalid_argument) << bad;
    EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--groups=cubic:1:20"}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(parse_figures_cli({"--figure=f"}, {"f"}), std::invalid_argument)
        << bad;
  }
  // Empty means "not set".
  setenv("CCAS_JOBS", "", 1);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20"}).sweep.jobs, 0);
  unsetenv("CCAS_JOBS");
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20"}).sweep.jobs, 0);
}

TEST(Cli, UsageMentionsEveryCca) {
  const std::string usage = cli_usage();
  for (const CcaRow& row : cca_table()) {
    EXPECT_NE(usage.find(row.name), std::string::npos) << row.name;
  }
}

TEST(Cli, DeletedCcasAreUnknown) {
  // Copa, Vegas and BBRv2-lite are gone: naming one is a usage error
  // (ccas_run exits 1) that lists the CCAs there are.
  for (const std::string cca : {"vegas", "copa", "bbr2"}) {
    try {
      (void)parse_cli({"--groups=" + cca + ":1:20"});
      ADD_FAILURE() << cca << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown CCA '" + cca +
                    "' (known: bbr, bbr-mincwnd-2, bbr-mincwnd-4, bbr-mincwnd-8, "
                    "cubic, newreno)");
    }
  }
}

// ------------------------------------------------- impairment flags ----

TEST(Cli, ParsesImpairmentFlags) {
  const CliOptions o = parse_cli(
      {"--groups=cubic:1:20", "--loss=0.001", "--ge-loss=0.01:0.3:0.5:0.002",
       "--dup=0.005", "--reorder=0.02:1.5", "--link-jitter=200:normal",
       "--flap=2:3,10:11", "--rate-change=5:250", "--buffer-change=7:500000"});
  const ImpairmentConfig& imp = o.spec.scenario.net.impairments;
  EXPECT_TRUE(imp.enabled());
  EXPECT_DOUBLE_EQ(imp.loss, 0.001);
  EXPECT_DOUBLE_EQ(imp.ge.p_good_to_bad, 0.01);
  EXPECT_DOUBLE_EQ(imp.ge.p_bad_to_good, 0.3);
  EXPECT_DOUBLE_EQ(imp.ge.loss_bad, 0.5);
  EXPECT_DOUBLE_EQ(imp.ge.loss_good, 0.002);
  EXPECT_DOUBLE_EQ(imp.duplicate, 0.005);
  EXPECT_DOUBLE_EQ(imp.reorder, 0.02);
  EXPECT_EQ(imp.reorder_delay, TimeDelta::micros(1500));
  EXPECT_EQ(imp.jitter, TimeDelta::micros(200));
  EXPECT_EQ(imp.jitter_dist, ImpairmentConfig::JitterDist::kNormal);
  // Faults from all three flags merge into one time-sorted schedule.
  ASSERT_EQ(imp.faults.size(), 6u);
  EXPECT_EQ(imp.faults[0].at, Time::seconds_f(2.0));
  EXPECT_EQ(imp.faults[0].kind, LinkFault::Kind::kDown);
  EXPECT_EQ(imp.faults[1].kind, LinkFault::Kind::kUp);
  EXPECT_EQ(imp.faults[2].at, Time::seconds_f(5.0));
  EXPECT_EQ(imp.faults[2].kind, LinkFault::Kind::kRate);
  EXPECT_EQ(imp.faults[2].rate, DataRate::mbps(250));
  EXPECT_EQ(imp.faults[3].kind, LinkFault::Kind::kBuffer);
  EXPECT_EQ(imp.faults[3].buffer_bytes, 500'000);
  EXPECT_EQ(imp.faults[4].at, Time::seconds_f(10.0));
  // The whole merged schedule must validate (strictly increasing).
  EXPECT_NO_THROW(imp.validate());
}

TEST(Cli, ImpairmentsDefaultToDisabled) {
  const CliOptions o = parse_cli({"--groups=cubic:1:20"});
  EXPECT_FALSE(o.spec.scenario.net.impairments.enabled());
  // The legacy --jitter flag targets the forward netem, not the stage.
  const CliOptions j = parse_cli({"--groups=cubic:1:20", "--jitter=100"});
  EXPECT_FALSE(j.spec.scenario.net.impairments.enabled());
  EXPECT_EQ(j.spec.scenario.net.jitter, TimeDelta::micros(100));
}

TEST(Cli, ImpairmentProbabilitiesMustBeInUnitInterval) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--loss=1.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--loss=-0.1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--dup=2"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--reorder=1.1:1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--ge-loss=1.5:0.3:0.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--ge-loss=0.01:0.3:-0.5"}),
               std::invalid_argument);
  // GE bad state must be leavable.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--ge-loss=0.01:0:0.5"}),
               std::invalid_argument);
}

TEST(Cli, ImpairmentFlagShapesAreStrict) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--loss=abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--ge-loss=0.01:0.3"}),
               std::invalid_argument);  // too few fields
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--reorder=0.02"}),
               std::invalid_argument);  // missing window
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--reorder=0.02:0"}),
               std::invalid_argument);  // non-positive window
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--link-jitter=-5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--link-jitter=10:gaussian"}),
               std::invalid_argument);  // unknown distribution
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--flap=2"}),
               std::invalid_argument);  // not down:up
}

TEST(Cli, FaultSchedulesMustBeMonotonicAndPositive) {
  // Non-monotonic within one flag.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--flap=5:6,2:3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--rate-change=5:100,5:200"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--buffer-change=3:100,2:200"}),
               std::invalid_argument);
  // A flap window must close after it opens.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--flap=3:3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--flap=-1:2"}),
               std::invalid_argument);
  // Positive-value requirements.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--rate-change=5:0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--rate-change=5:-10"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--buffer-change=5:0"}),
               std::invalid_argument);
  // Cross-flag ties are rejected by the merged-schedule validation.
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--flap=5:6", "--rate-change=5:100"}),
      std::invalid_argument);
}

TEST(Cli, UsageMentionsImpairmentFlags) {
  const std::string usage = cli_usage();
  for (const char* flag : {"--loss", "--ge-loss", "--dup", "--reorder",
                           "--link-jitter", "--flap", "--rate-change",
                           "--buffer-change"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(Cli, ParsesSupervisionFlags) {
  const CliOptions o = parse_cli(
      {"--groups=newreno:1:20", "--cell-timeout=30", "--cell-events=1000000",
       "--cell-rss=512", "--retries=5", "--max-failures=3",
       "--resume=run1", "--quarantine=quar"});
  EXPECT_EQ(o.sweep.supervision.cell_timeout, TimeDelta::seconds(30));
  EXPECT_EQ(o.sweep.supervision.max_cell_events, 1'000'000u);
  EXPECT_EQ(o.sweep.supervision.max_cell_rss_bytes, 512'000'000);
  EXPECT_EQ(o.sweep.supervision.retries, 5);
  EXPECT_EQ(o.sweep.max_failures, 3);
  EXPECT_EQ(o.sweep.resume_dir, "run1");
  EXPECT_EQ(o.sweep.quarantine_dir, "quar");
  EXPECT_FALSE(o.sweep.fail_fast);
}

TEST(Cli, SupervisionDefaultsAreIsolationWithTwoRetries) {
  const CliOptions o = parse_cli({"--groups=newreno:1:20"});
  EXPECT_EQ(o.sweep.supervision.cell_timeout, TimeDelta::zero());
  EXPECT_EQ(o.sweep.supervision.max_cell_events, 0u);
  EXPECT_EQ(o.sweep.supervision.max_cell_rss_bytes, 0);
  EXPECT_EQ(o.sweep.supervision.retries, 2);
  EXPECT_EQ(o.sweep.max_failures, 0);
  EXPECT_FALSE(o.sweep.fail_fast);
}

TEST(Cli, SupervisionBudgetsMustBePositive) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-timeout=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-timeout=-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-timeout=1e-12"}),
               std::invalid_argument);  // rounds to zero nanoseconds
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-events=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-events=-5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-events=2.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-rss=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--cell-rss=1e-9"}),
               std::invalid_argument);  // rounds to zero bytes
}

TEST(Cli, RetriesMustBeInRange) {
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--retries=-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--retries=17"}),
               std::invalid_argument);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20", "--retries=0"}).sweep.supervision.retries, 0);
  EXPECT_EQ(parse_cli({"--groups=cubic:1:20", "--retries=16"}).sweep.supervision.retries,
            16);
}

TEST(Cli, MaxFailuresZeroSuggestsFailFast) {
  try {
    (void)parse_cli({"--groups=cubic:1:20", "--max-failures=0"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--fail-fast"), std::string::npos);
  }
}

TEST(Cli, FailFastTakesNoValueAndExcludesMaxFailures) {
  EXPECT_TRUE(
      parse_cli({"--groups=cubic:1:20", "--fail-fast"}).sweep.fail_fast);
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--fail-fast=1"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--fail-fast", "--max-failures=2"}),
      std::invalid_argument);
}

TEST(Cli, FailFastRejectsResume) {
  try {
    (void)parse_cli({"--groups=cubic:1:20", "--fail-fast", "--resume=dir"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error steers toward the supported equivalent.
    EXPECT_NE(std::string(e.what()).find("--max-failures=1"),
              std::string::npos);
  }
}

TEST(Cli, QdiscFlagsParse) {
  const CliOptions o = parse_cli(
      {"--groups=cubic:2:20", "--qdisc=fq-codel", "--ecn", "--codel=7:140",
       "--fq=128:3028"});
  const QdiscConfig& qd = o.spec.scenario.net.qdisc;
  EXPECT_EQ(qd.kind, QdiscKind::kFqCoDel);
  EXPECT_TRUE(qd.ecn);
  EXPECT_EQ(qd.codel_target, TimeDelta::millis(7));
  EXPECT_EQ(qd.codel_interval, TimeDelta::millis(140));
  EXPECT_EQ(qd.fq_flows, 128u);
  EXPECT_EQ(qd.fq_quantum, 3028);

  const CliOptions pie = parse_cli(
      {"--groups=cubic:2:20", "--qdisc=pie", "--pie=20:30"});
  EXPECT_EQ(pie.spec.scenario.net.qdisc.kind, QdiscKind::kPie);
  EXPECT_EQ(pie.spec.scenario.net.qdisc.pie_target, TimeDelta::millis(20));
  EXPECT_EQ(pie.spec.scenario.net.qdisc.pie_tupdate, TimeDelta::millis(30));

  const CliOptions red = parse_cli(
      {"--groups=cubic:2:20", "--qdisc=red", "--red=100000:400000:0.2"});
  EXPECT_EQ(red.spec.scenario.net.qdisc.kind, QdiscKind::kRed);
  EXPECT_EQ(red.spec.scenario.net.qdisc.red_min_bytes, 100'000);
  EXPECT_EQ(red.spec.scenario.net.qdisc.red_max_bytes, 400'000);
  EXPECT_DOUBLE_EQ(red.spec.scenario.net.qdisc.red_max_p, 0.2);

  // Default stays drop-tail with ECN off.
  const CliOptions plain = parse_cli({"--groups=cubic:2:20"});
  EXPECT_EQ(plain.spec.scenario.net.qdisc.kind, QdiscKind::kDropTail);
  EXPECT_FALSE(plain.spec.scenario.net.qdisc.ecn);
}

TEST(Cli, QdiscRejections) {
  // Unknown scheduler name.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--qdisc=banana"}),
               std::invalid_argument);
  // ECN requires an AQM qdisc (and takes no value).
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--ecn"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=codel", "--ecn=1"}),
      std::invalid_argument);
  // CoDel target must stay below the interval.
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=codel", "--codel=100:5"}),
      std::invalid_argument);
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=codel", "--codel=0:100"}),
      std::invalid_argument);
  // RED min threshold must stay below max.
  EXPECT_THROW(parse_cli({"--groups=cubic:1:20", "--qdisc=red",
                          "--red=2000000:1000000"}),
               std::invalid_argument);
  // PIE tupdate must be positive (caught by QdiscConfig::validate()).
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=pie", "--pie=15:0"}),
      std::invalid_argument);
  // Malformed pair syntax and bad FQ sizes.
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=codel", "--codel=5"}),
      std::invalid_argument);
  EXPECT_THROW(
      parse_cli({"--groups=cubic:1:20", "--qdisc=fq-codel", "--fq=0:1514"}),
      std::invalid_argument);
}

TEST(Cli, QdiscSpecCliRoundTrip) {
  // Every AQM kind (with non-default knobs) renders to flags that parse
  // back to the identical canonical spec.
  std::vector<std::vector<std::string>> cases = {
      {"--groups=cubic:2:20", "--qdisc=codel", "--ecn", "--codel=3:60"},
      {"--groups=cubic:2:20,bbr:2:80", "--qdisc=fq-codel", "--fq=32:1000"},
      {"--groups=newreno:4:20", "--qdisc=pie", "--ecn", "--pie=10:12"},
      {"--groups=cubic:8:20", "--qdisc=red", "--red=50000:150000:0.05"},
      {"--groups=cubic:8:20", "--qdisc=drop-tail"},
  };
  for (const auto& args : cases) {
    const CliOptions original = parse_cli(args);
    const SpecCliRendering rendering = spec_to_cli(original.spec);
    EXPECT_TRUE(rendering.notes.empty());
    const CliOptions reparsed = parse_cli(rendering.args);
    EXPECT_EQ(sweep::spec_cache_key(original.spec),
              sweep::spec_cache_key(reparsed.spec));
    EXPECT_EQ(sweep::canonical_spec_bytes(original.spec),
              sweep::canonical_spec_bytes(reparsed.spec));
  }
}

TEST(Cli, UsageMentionsSupervisionFlagsAndExitCodes) {
  const std::string usage = cli_usage();
  for (const char* flag :
       {"--cell-timeout", "--cell-events", "--cell-rss", "--retries",
        "--max-failures", "--resume", "--quarantine", "--fail-fast"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_NE(usage.find("Exit codes"), std::string::npos);
}

TEST(Cli, ShardsFlagAndEnvAreRefused) {
  // Sharded execution is retired: its flag is an unknown flag, and a set
  // CCAS_SHARDS is refused by name instead of silently running serially.
  try {
    (void)parse_cli({"--groups=cubic:4:20", "--shards=2"});
    ADD_FAILURE() << "--shards was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown flag '--shards'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cli_usage().find("--shards"), std::string::npos);
  for (const char* value : {"1", "4", "junk"}) {
    setenv("CCAS_SHARDS", value, 1);
    try {
      (void)parse_cli({"--groups=cubic:4:20"});
      ADD_FAILURE() << "CCAS_SHARDS=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CCAS_SHARDS"), std::string::npos)
          << e.what();
    }
  }
  // Empty means "not set", as for every CCAS_* variable.
  setenv("CCAS_SHARDS", "", 1);
  EXPECT_EQ(parse_cli({"--groups=cubic:4:20"}).spec.shards, 1);
  unsetenv("CCAS_SHARDS");
}

// The next three tests keep the names of the --shards tests from before
// sharded execution was retired and replay their command lines: every one
// of them, including the ones that used to be accepted, is now refused.

TEST(Cli, ShardsRequiresPositiveInteger) {
  // --shards once took a positive integer; now no value is accepted, the
  // valid ones included, and the spec keeps its inert default.
  for (const char* flag : {"--shards=0", "--shards=-2", "--shards=2.5", "--shards=1e2",
                           "--shards=abc", "--shards=4", "--shards=1", "--shards"}) {
    try {
      (void)parse_cli({"--groups=cubic:4:20", flag});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag '--shards'"), std::string::npos)
          << flag << ": " << e.what();
    }
  }
  EXPECT_EQ(parse_cli({"--groups=cubic:4:20"}).spec.shards, 1);
}

TEST(Cli, ShardsEnvDefaultAndFlagPrecedence) {
  // CCAS_SHARDS no longer supplies a default and --shards no longer
  // overrides it: a set variable is refused by name whatever the flags say.
  setenv("CCAS_SHARDS", "3", 1);
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--groups=cubic:4:20"},
        std::vector<std::string>{"--groups=cubic:4:20", "--jobs=2"}}) {
    try {
      (void)parse_cli(args);
      ADD_FAILURE() << "CCAS_SHARDS=3 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("CCAS_SHARDS"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_cli({"--groups=cubic:4:20", "--shards=2"}), std::invalid_argument);
  setenv("CCAS_SHARDS", "0", 1);
  EXPECT_THROW(parse_cli({"--groups=cubic:4:20"}), std::invalid_argument);
  setenv("CCAS_SHARDS", "", 1);
  EXPECT_EQ(parse_cli({"--groups=cubic:4:20"}).spec.shards, 1);
  unsetenv("CCAS_SHARDS");
  EXPECT_EQ(parse_cli({"--groups=cubic:4:20"}).spec.shards, 1);
}

TEST(Cli, ShardsBeyondFlowCountIsASpecError) {
  // A shard count above the flow count, or any other, is still an error on
  // the command line, and --jobs does not change that. Set through the API,
  // ExperimentSpec::shards is inert: golden.ShardsFieldKeepsSerialSpecBytes
  // pins that it leaves the result bytes as at shards = 1.
  EXPECT_THROW(parse_cli({"--groups=cubic:4:20", "--shards=5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--groups=cubic:4:20", "--shards=4", "--jobs=2"}),
               std::invalid_argument);
  const CliOptions o = parse_cli({"--groups=cubic:4:20", "--jobs=2"});
  EXPECT_EQ(o.spec.shards, 1);
  EXPECT_EQ(o.sweep.jobs, 2);
}

TEST(Cli, WorkloadParsesFullConfiguration) {
  const CliOptions o = parse_cli(
      {"--setting=edge", "--workload=poisson:500", "--workload-max=2000",
       "--workload-class=web:0.9:cubic:20:pareto/1.3/4/400:web/8/5",
       "--workload-class=bulk:0.1:bbr:40:lognormal/5/1.2/10/10000:bulk"});
  const WorkloadSpec& wl = o.spec.workload;
  EXPECT_TRUE(wl.enabled());
  EXPECT_EQ(wl.arrival, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(wl.arrivals_per_sec, 500.0);
  EXPECT_EQ(wl.max_concurrent, 2000u);
  ASSERT_EQ(wl.classes.size(), 2u);
  EXPECT_EQ(wl.classes[0].name, "web");
  EXPECT_DOUBLE_EQ(wl.classes[0].weight, 0.9);
  EXPECT_EQ(wl.classes[0].cca, "cubic");
  EXPECT_EQ(wl.classes[0].rtt, TimeDelta::millis(20));
  EXPECT_EQ(wl.classes[0].size.kind, SizeDistKind::kPareto);
  EXPECT_DOUBLE_EQ(wl.classes[0].size.pareto_alpha, 1.3);
  EXPECT_EQ(wl.classes[0].size.min_segments, 4u);
  EXPECT_EQ(wl.classes[0].size.max_segments, 400u);
  EXPECT_EQ(wl.classes[0].app, AppModel::kWebObject);
  EXPECT_EQ(wl.classes[0].app_burst_segments, 8u);
  EXPECT_EQ(wl.classes[0].app_gap, TimeDelta::millis(5));
  EXPECT_EQ(wl.classes[1].size.kind, SizeDistKind::kLognormal);
  EXPECT_DOUBLE_EQ(wl.classes[1].size.lognormal_mu, 5.0);
  EXPECT_DOUBLE_EQ(wl.classes[1].size.lognormal_sigma, 1.2);
  EXPECT_EQ(wl.classes[1].app, AppModel::kBulk);
  // Workload-only specs need no --groups.
  EXPECT_TRUE(o.spec.groups.empty());

  const CliOptions det = parse_cli(
      {"--workload=fixed:100",
       "--workload-class=v:1:cubic:30:fixed/50:video/25/40"});
  EXPECT_EQ(det.spec.workload.arrival, ArrivalKind::kDeterministic);
  EXPECT_EQ(det.spec.workload.classes[0].size.kind, SizeDistKind::kFixed);
  EXPECT_EQ(det.spec.workload.classes[0].size.fixed_segments, 50u);
  EXPECT_EQ(det.spec.workload.classes[0].app, AppModel::kVideoChunk);
  EXPECT_EQ(det.spec.workload.classes[0].app_gap, TimeDelta::millis(40));
}

TEST(Cli, WorkloadRejections) {
  const std::string cls = "--workload-class=w:1:cubic:20:fixed/10:bulk";
  // Arrival process and rate.
  EXPECT_THROW(parse_cli({"--workload=uniform:100", cls}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson", cls}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:0", cls}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:-5", cls}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:inf", cls}), std::invalid_argument);
  // Classes without a rate, and a rate without classes.
  EXPECT_THROW(parse_cli({cls}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10"}), std::invalid_argument);
  // Neither groups nor workload.
  EXPECT_THROW(parse_cli({}), std::invalid_argument);
  // Field count, empty name, bad weight, unknown CCA, bad RTT.
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/10"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=:1:cubic:20:fixed/10:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:0:cubic:20:fixed/10:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:-1:cubic:20:fixed/10:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:nosuchcca:20:fixed/10:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:0:fixed/10:bulk"}),
               std::invalid_argument);
  // Size-spec validation: alpha, bounds ordering, unknown kind.
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:pareto/0/4/400:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:pareto/1.2/400/4:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:pareto/1.2/0/4:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_cli({"--workload=poisson:10",
                 "--workload-class=w:1:cubic:20:lognormal/5/0/10/100:bulk"}),
      std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:zipf/1.1/4/400:bulk"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/0:bulk"}),
               std::invalid_argument);
  // App-spec validation: burst, video interval, unknown model.
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/10:rr/0/5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/10:video/4/0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/10:ftp/4/5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10",
                          "--workload-class=w:1:cubic:20:fixed/10:bulk/4"}),
               std::invalid_argument);
  // Mix weights must sum to 1.
  EXPECT_THROW(
      parse_cli({"--workload=poisson:10",
                 "--workload-class=a:0.5:cubic:20:fixed/10:bulk",
                 "--workload-class=b:0.4:cubic:20:fixed/10:bulk"}),
      std::invalid_argument);
  // Admission cap: an explicit 0 is a typo, not "unlimited".
  EXPECT_THROW(parse_cli({"--workload=poisson:10", cls, "--workload-max=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_cli({"--workload=poisson:10", cls, "--workload-max=2.5"}),
               std::invalid_argument);
}

TEST(Cli, WorkloadEmpiricalCdfFile) {
  const std::string good = testing::TempDir() + "ccas_cli_cdf_good.txt";
  {
    std::ofstream f(good);
    f << "# cumulative_prob segments\n\n0.5 10\n0.9 100\n1.0 4000\n";
  }
  const CliOptions o = parse_cli(
      {"--workload=poisson:10",
       "--workload-class=w:1:cubic:20:cdf/" + good + ":bulk"});
  const SizeDist& d = o.spec.workload.classes[0].size;
  EXPECT_EQ(d.kind, SizeDistKind::kEmpirical);
  EXPECT_EQ(d.empirical_path, good);
  ASSERT_EQ(d.empirical.size(), 3u);
  EXPECT_DOUBLE_EQ(d.empirical[0].cum_prob, 0.5);
  EXPECT_EQ(d.empirical[2].segments, 4000u);

  // Missing file, non-increasing cum_prob, last != 1, junk tokens.
  EXPECT_THROW(
      parse_cli({"--workload=poisson:10",
                 "--workload-class=w:1:cubic:20:cdf//no/such/file:bulk"}),
      std::invalid_argument);
  const std::string bad = testing::TempDir() + "ccas_cli_cdf_bad.txt";
  for (const char* content :
       {"0.9 10\n0.5 100\n1.0 200\n", "0.5 10\n0.9 100\n", "0.5 ten\n1.0 20\n",
        "0.5 10 extra\n1.0 20\n", ""}) {
    std::ofstream(bad, std::ios::trunc) << content;
    EXPECT_THROW(
        parse_cli({"--workload=poisson:10",
                   "--workload-class=w:1:cubic:20:cdf/" + bad + ":bulk"}),
        std::invalid_argument)
        << "content: " << content;
  }
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(Cli, WorkloadSpecCliRoundTrip) {
  // Every arrival process, size distribution and app model renders to
  // flags that parse back to the identical canonical spec.
  const std::string cdf = testing::TempDir() + "ccas_cli_cdf_rt.txt";
  std::ofstream(cdf, std::ios::trunc) << "0.25 8\n0.75 80\n1.0 800\n";
  std::vector<std::vector<std::string>> cases = {
      {"--workload=poisson:250",
       "--workload-class=web:0.9:cubic:20:pareto/1.2/4/400:web/8/5",
       "--workload-class=bulk:0.1:bbr:40:lognormal/5.5/1.25/10/10000:bulk"},
      {"--groups=cubic:4:20", "--workload=fixed:100", "--workload-max=500",
       "--workload-class=rr:0.5:newreno:30:fixed/12:rr/4/20",
       "--workload-class=video:0.5:bbr-mincwnd-8:60:fixed/64:video/16/40"},
      {"--workload=poisson:33.5",
       "--workload-class=emp:1:cubic:25:cdf/" + cdf + ":bulk"},
  };
  for (const auto& args : cases) {
    const CliOptions original = parse_cli(args);
    const SpecCliRendering rendering = spec_to_cli(original.spec);
    const CliOptions reparsed = parse_cli(rendering.args);
    EXPECT_EQ(sweep::spec_cache_key(original.spec),
              sweep::spec_cache_key(reparsed.spec));
    EXPECT_EQ(sweep::canonical_spec_bytes(original.spec),
              sweep::canonical_spec_bytes(reparsed.spec));
  }
  std::remove(cdf.c_str());
  // A disabled workload renders to no workload flags at all.
  const CliOptions plain = parse_cli({"--groups=cubic:8:20"});
  for (const std::string& arg : spec_to_cli(plain.spec).args) {
    EXPECT_EQ(arg.find("--workload"), std::string::npos) << arg;
  }
  EXPECT_NE(cli_usage().find("--workload"), std::string::npos);
}

TEST(FleetCli, ParsesFlagsAndResolvesDefaults) {
  const FleetCli cli = parse_fleet_cli(
      {"--fleet-dir=/tmp/job", "--lease-ttl=12", "--heartbeat=3",
       "--fleet-wait=60", "--worker-id=host1-w0", "--groups=newreno:2:20",
       "--seeds=1,2,3"});
  EXPECT_EQ(cli.fleet.fleet_dir, "/tmp/job");
  EXPECT_EQ(cli.fleet.lease_ttl_ms, 12'000u);
  EXPECT_EQ(cli.fleet.heartbeat_ms, 3'000u);
  EXPECT_EQ(cli.fleet.wait_ms, 60'000u);
  EXPECT_EQ(cli.fleet.worker_id, "host1-w0");
  EXPECT_FALSE(cli.fleet.report_only);
  EXPECT_EQ(cli.run.seeds.size(), 3u);
  ASSERT_EQ(cli.run.spec.groups.size(), 1u);
  EXPECT_EQ(cli.run.spec.groups[0].cca, "newreno");

  // Defaults: TTL 30s, heartbeat deferred to the worker (TTL/3), wait
  // forever, pid-derived worker id.
  const FleetCli defaults =
      parse_fleet_cli({"--fleet-dir=d", "--groups=newreno:1:20"});
  EXPECT_EQ(defaults.fleet.lease_ttl_ms, 30'000u);
  EXPECT_EQ(defaults.fleet.heartbeat_ms, 0u);
  EXPECT_EQ(defaults.fleet.wait_ms, 0u);
  EXPECT_TRUE(defaults.fleet.worker_id.empty());
}

TEST(FleetCli, RejectsMissingOrMalformedFleetFlags) {
  // --fleet-dir is required (and must carry a value).
  EXPECT_THROW(parse_fleet_cli({"--groups=newreno:1:20"}),
               std::invalid_argument);
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=", "--groups=newreno:1:20"}),
               std::invalid_argument);
  // Non-positive or to-zero-rounding timing flags.
  for (const char* bad :
       {"--lease-ttl=0", "--lease-ttl=-5", "--lease-ttl=0.0001",
        "--heartbeat=0", "--heartbeat=-1", "--heartbeat=0.0002"}) {
    EXPECT_THROW(
        parse_fleet_cli({"--fleet-dir=d", bad, "--groups=newreno:1:20"}),
        std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--fleet-wait=-1",
                                "--groups=newreno:1:20"}),
               std::invalid_argument);
  // A heartbeat that could never renew in time.
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--lease-ttl=5",
                                "--heartbeat=5", "--groups=newreno:1:20"}),
               std::invalid_argument);
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--lease-ttl=5",
                                "--heartbeat=9", "--groups=newreno:1:20"}),
               std::invalid_argument);
  // Worker ids name lease files and journal fields.
  for (const char* bad : {"--worker-id=a/b", "--worker-id=a b"}) {
    EXPECT_THROW(
        parse_fleet_cli({"--fleet-dir=d", bad, "--groups=newreno:1:20"}),
        std::invalid_argument)
        << bad;
  }
  // --report-only takes no value and no grid flags.
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--report-only=yes"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_fleet_cli({"--fleet-dir=d", "--report-only", "--seed=3"}),
      std::invalid_argument);
  // Bare --report-only is fine.
  EXPECT_TRUE(
      parse_fleet_cli({"--fleet-dir=d", "--report-only"}).fleet.report_only);
}

TEST(FleetCli, RejectsGridFlagsThatCannotDescribeAFleetJob) {
  const std::vector<std::string> base = {"--fleet-dir=d",
                                         "--groups=newreno:1:20"};
  // --jobs, --cache-dir, --no-cache, --max-failures and --perf used to be
  // accepted and silently ignored.
  for (const char* bad : {"--trace=0.5", "--csv=out", "--resume=r", "--quarantine=q",
                          "--fail-fast", "--jobs=8", "--cache-dir=c", "--no-cache",
                          "--max-failures=1", "--perf"}) {
    std::vector<std::string> args = base;
    args.emplace_back(bad);
    EXPECT_THROW(parse_fleet_cli(args), std::invalid_argument) << bad;
  }
  // Unknown grid flags surface parse_cli's own rejection.
  EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--no-such-flag=1"}),
               std::invalid_argument);
  EXPECT_NE(fleet_cli_usage().find("--fleet-dir"), std::string::npos);
  // The sweep environment stands in for --jobs, --cache-dir and --no-cache
  // and used to be read and then ignored; the refusal names the variable.
  for (const char* var : {"CCAS_JOBS", "CCAS_CACHE_DIR", "CCAS_NO_CACHE"}) {
    for (const char* value : {"1", "8", "c"}) {
      setenv(var, value, 1);
      try {
        (void)parse_fleet_cli(base);
        ADD_FAILURE() << var << "=" << value << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
      }
      EXPECT_THROW(parse_fleet_cli({"--fleet-dir=d", "--report-only"}),
                   std::invalid_argument)
          << var << "=" << value;
    }
    setenv(var, "", 1);  // empty reads as unset
    EXPECT_NO_THROW((void)parse_fleet_cli(base)) << var << " empty";
    unsetenv(var);
  }
  EXPECT_NO_THROW((void)parse_fleet_cli(base));
}

TEST(FleetCli, SpecToCliRoundTripsThroughFleetParsing) {
  // The .repro renderer's output must survive parse_fleet_cli's
  // splitter: fleet flags peel off, the rendered grid flags reproduce
  // the spec hash exactly.
  const CliOptions original = parse_cli(
      {"--setting=edge", "--groups=bbr:2:20,newreno:3:40", "--rate=25",
       "--buffer=200000", "--stagger=0.25", "--warmup=1", "--measure=2",
       "--seed=11", "--qdisc=codel", "--ecn"});
  std::vector<std::string> args = {"--fleet-dir=d", "--lease-ttl=10",
                                   "--worker-id=w7"};
  const SpecCliRendering rendering = spec_to_cli(original.spec);
  args.insert(args.end(), rendering.args.begin(), rendering.args.end());
  const FleetCli cli = parse_fleet_cli(args);
  EXPECT_EQ(sweep::spec_cache_key(cli.run.spec),
            sweep::spec_cache_key(original.spec));
  EXPECT_EQ(cli.fleet.worker_id, "w7");
}

}  // namespace
}  // namespace ccas
