// Tests for the sweep supervision layer: failure taxonomy and backoff,
// per-cell budgets (events / RSS / wall-clock watchdog), failure isolation
// with partial results, transient retry, the resumable manifest (journal
// round trip, salt pinning, torn tails, byte-identical resume), quarantine
// .repro emission, result-cache write hardening, the spec→CLI renderer,
// and a property test over randomly faulted sweeps.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/cli.h"
#include "src/harness/runner.h"
#include "src/sweep/executor.h"
#include "src/sweep/manifest.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/supervisor.h"

namespace ccas::sweep {
namespace {

namespace fs = std::filesystem;

// A cheap but non-trivial spec (mirrors sweep_test.cc): a few flows over a
// small link for a short simulated time.
ExperimentSpec small_spec(const char* cca = "newreno", int flows = 3,
                          uint64_t seed = 7) {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::mbps(10);
  spec.scenario.net.buffer_bytes = 100'000;
  spec.scenario.stagger = TimeDelta::seconds_f(0.5);
  spec.scenario.warmup = TimeDelta::seconds(1);
  spec.scenario.measure = TimeDelta::seconds(3);
  spec.groups.push_back(FlowGroup{cca, flows, TimeDelta::millis(20)});
  spec.seed = seed;
  return spec;
}

// An even cheaper spec for the property test (hundreds of runs).
ExperimentSpec tiny_spec(uint64_t seed, int flows) {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::mbps(5);
  spec.scenario.net.buffer_bytes = 50'000;
  spec.scenario.stagger = TimeDelta::seconds_f(0.05);
  spec.scenario.warmup = TimeDelta::seconds_f(0.1);
  spec.scenario.measure = TimeDelta::seconds_f(0.2);
  spec.groups.push_back(FlowGroup{"newreno", flows, TimeDelta::millis(10)});
  spec.seed = seed;
  return spec;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::current_path() /
            ("supervisor_test_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + std::to_string(counter_++));
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

SweepOptions quiet_options() {
  SweepOptions opts;
  opts.progress = false;
  return opts;
}

std::string digest(const ExperimentResult& r) { return serialize_result(r); }

// ---------------------------------------------------------------------------
// Taxonomy, backoff, watchdog, injection parsing.
// ---------------------------------------------------------------------------

TEST(SweepSupervisor, FailureClassNamesRoundTrip) {
  for (const FailureClass cls :
       {FailureClass::kException, FailureClass::kAuditViolation,
        FailureClass::kBudgetWall, FailureClass::kBudgetEvents,
        FailureClass::kBudgetRss, FailureClass::kCacheIo}) {
    const auto back = failure_class_from_name(failure_class_name(cls));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, cls);
  }
  EXPECT_FALSE(failure_class_from_name("no-such-class").has_value());
}

TEST(SweepSupervisor, OnlyCacheIoIsTransient) {
  EXPECT_TRUE(failure_is_transient(FailureClass::kCacheIo));
  EXPECT_FALSE(failure_is_transient(FailureClass::kException));
  EXPECT_FALSE(failure_is_transient(FailureClass::kAuditViolation));
  EXPECT_FALSE(failure_is_transient(FailureClass::kBudgetWall));
  EXPECT_FALSE(failure_is_transient(FailureClass::kBudgetEvents));
  EXPECT_FALSE(failure_is_transient(FailureClass::kBudgetRss));
  EXPECT_TRUE(failure_is_budget(FailureClass::kBudgetWall));
  EXPECT_TRUE(failure_is_budget(FailureClass::kBudgetEvents));
  EXPECT_TRUE(failure_is_budget(FailureClass::kBudgetRss));
  EXPECT_FALSE(failure_is_budget(FailureClass::kCacheIo));
}

TEST(SweepSupervisor, RetryBackoffIsDeterministicAndCapped) {
  EXPECT_EQ(retry_backoff(1), TimeDelta::millis(10));
  EXPECT_EQ(retry_backoff(2), TimeDelta::millis(20));
  EXPECT_EQ(retry_backoff(3), TimeDelta::millis(40));
  EXPECT_EQ(retry_backoff(4), TimeDelta::millis(80));
  EXPECT_EQ(retry_backoff(5), TimeDelta::millis(160));
  EXPECT_EQ(retry_backoff(6), TimeDelta::millis(160));  // shift saturates
  EXPECT_EQ(retry_backoff(100), TimeDelta::millis(160));
  EXPECT_EQ(retry_backoff(0), TimeDelta::millis(10));  // clamped
}

TEST(SweepSupervisor, WatchdogSetsTheFlagAfterTimeout) {
  std::atomic<bool> expired{false};
  {
    CellWatchdog dog(TimeDelta::millis(20), &expired);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!expired.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(expired.load());
}

TEST(SweepSupervisor, WatchdogDisarmsOnDestruction) {
  std::atomic<bool> expired{false};
  { CellWatchdog dog(TimeDelta::seconds(30), &expired); }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(expired.load());
}

TEST(SweepSupervisor, ZeroTimeoutWatchdogIsInert) {
  std::atomic<bool> expired{false};
  { CellWatchdog dog(TimeDelta::zero(), &expired); }
  EXPECT_FALSE(expired.load());
}

TEST(SweepSupervisor, ParsesFaultInjectionSyntax) {
  const auto plan =
      parse_fault_injections("a:throw;b:cacheio:2;rate=5:rtt=10:hang");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].cell, "a");
  EXPECT_EQ(plan[0].fault, InjectedFault::kThrow);
  EXPECT_EQ(plan[0].count, 1);
  EXPECT_EQ(plan[1].cell, "b");
  EXPECT_EQ(plan[1].fault, InjectedFault::kCacheIo);
  EXPECT_EQ(plan[1].count, 2);
  // Cell names may contain ':'; the class and count split from the right.
  EXPECT_EQ(plan[2].cell, "rate=5:rtt=10");
  EXPECT_EQ(plan[2].fault, InjectedFault::kHang);

  EXPECT_THROW((void)parse_fault_injections("noclass"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_injections("a:frobnicate"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_fault_injections(":throw"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_injections("a:throw:0"),
               std::invalid_argument);
}

TEST(SweepSupervisor, FaultPlanConsumesCounts) {
  FaultPlan plan(parse_fault_injections("c:cacheio:2"));
  EXPECT_TRUE(plan.next("other") == std::nullopt);
  ASSERT_TRUE(plan.next("c").has_value());
  ASSERT_TRUE(plan.next("c").has_value());
  EXPECT_TRUE(plan.next("c") == std::nullopt);  // spent
}

// ---------------------------------------------------------------------------
// Budgets.
// ---------------------------------------------------------------------------

TEST(SweepSupervisor, EventCeilingFailsTheCellDeterministically) {
  SweepSpec sweep;
  sweep.add_cell("capped", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.max_cell_events = 500;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kFailed);
  ASSERT_TRUE(outcomes[0].failure.has_value());
  EXPECT_EQ(outcomes[0].failure->cls, FailureClass::kBudgetEvents);
  EXPECT_EQ(outcomes[0].attempts, 1);  // budget blowouts never retry
}

TEST(SweepSupervisor, RssCeilingFailsTheCell) {
  SweepSpec sweep;
  sweep.add_cell("heavy", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.max_cell_rss_bytes = 1;  // any estimate blows this
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[0].failure->cls, FailureClass::kBudgetRss);
}

TEST(SweepSupervisor, WatchdogCancelsAHungCell) {
  ScopedEnv env("CCAS_FAIL_CELL", "hung:hang");
  SweepSpec sweep;
  sweep.add_cell("hung", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.cell_timeout = TimeDelta::millis(100);
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[0].failure->cls, FailureClass::kBudgetWall);
  EXPECT_LT(outcomes[0].wall_sec, 4.0);  // cancelled well before the 5s cap
}

TEST(SweepSupervisor, GenerousBudgetsDoNotPerturbResults) {
  SweepSpec sweep;
  sweep.add_cell("cell", small_spec());

  SweepExecutor bare(quiet_options());
  const auto reference = bare.run(sweep);

  SweepOptions opts = quiet_options();
  opts.supervision.cell_timeout = TimeDelta::seconds(300);
  opts.supervision.max_cell_events = 1'000'000'000ULL;
  opts.supervision.max_cell_rss_bytes = 1LL << 40;
  SweepExecutor budgeted(opts);
  const auto supervised = budgeted.run(sweep);

  ASSERT_EQ(supervised[0].status, CellStatus::kOk);
  EXPECT_EQ(digest(reference[0].result), digest(supervised[0].result));
}

// ---------------------------------------------------------------------------
// Failure isolation and retry.
// ---------------------------------------------------------------------------

TEST(SweepSupervisor, PartialResultsWithFailuresInCellOrder) {
  // Reference: the same healthy cells, unsupervised.
  SweepSpec healthy;
  healthy.add_cell("a", small_spec("newreno", 2, 1));
  healthy.add_cell("c", small_spec("newreno", 2, 3));
  healthy.add_cell("e", small_spec("newreno", 2, 5));
  SweepExecutor ref(quiet_options());
  const auto ref_outcomes = ref.run(healthy);

  ScopedEnv env("CCAS_FAIL_CELL", "b:throw;d:audit");
  SweepSpec sweep;
  sweep.add_cell("a", small_spec("newreno", 2, 1));
  sweep.add_cell("b", small_spec("newreno", 2, 2));
  sweep.add_cell("c", small_spec("newreno", 2, 3));
  sweep.add_cell("d", small_spec("newreno", 2, 4));
  sweep.add_cell("e", small_spec("newreno", 2, 5));
  SweepOptions opts = quiet_options();
  opts.jobs = 4;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);

  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[2].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[3].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[4].status, CellStatus::kOk);

  // failures() preserves cell order regardless of worker completion order.
  ASSERT_EQ(executor.failures().size(), 2u);
  EXPECT_EQ(executor.failures()[0].cell, "b");
  EXPECT_EQ(executor.failures()[0].cls, FailureClass::kException);
  EXPECT_EQ(executor.failures()[1].cell, "d");
  EXPECT_EQ(executor.failures()[1].cls, FailureClass::kAuditViolation);
  EXPECT_EQ(executor.summary().failed, 2);

  // Healthy cells are byte-identical to the unsupervised run.
  EXPECT_EQ(digest(outcomes[0].result), digest(ref_outcomes[0].result));
  EXPECT_EQ(digest(outcomes[2].result), digest(ref_outcomes[1].result));
  EXPECT_EQ(digest(outcomes[4].result), digest(ref_outcomes[2].result));
}

TEST(SweepSupervisor, TransientFailureRetriesAndSucceeds) {
  ScopedEnv env("CCAS_FAIL_CELL", "flaky:cacheio:2");
  SweepSpec sweep;
  sweep.add_cell("flaky", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.retries = 2;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(outcomes[0].attempts, 3);
  EXPECT_EQ(executor.summary().retries, 2);
  EXPECT_EQ(executor.summary().failed, 0);

  SweepExecutor bare(quiet_options());
  const auto reference = bare.run(sweep);
  EXPECT_EQ(digest(outcomes[0].result), digest(reference[0].result));
}

TEST(SweepSupervisor, TransientFailureExhaustsRetries) {
  ScopedEnv env("CCAS_FAIL_CELL", "flaky:cacheio:5");
  SweepSpec sweep;
  sweep.add_cell("flaky", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.retries = 1;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[0].failure->cls, FailureClass::kCacheIo);
  EXPECT_EQ(outcomes[0].attempts, 2);  // first attempt + one retry
}

TEST(SweepSupervisor, DeterministicFailuresNeverRetry) {
  ScopedEnv env("CCAS_FAIL_CELL", "bad:throw:5");
  SweepSpec sweep;
  sweep.add_cell("bad", small_spec());
  SweepOptions opts = quiet_options();
  opts.supervision.retries = 16;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[0].attempts, 1);
}

TEST(SweepSupervisor, MaxFailuresAbortsAndSkipsRemainingCells) {
  ScopedEnv env("CCAS_FAIL_CELL", "c0:throw;c1:throw;c2:throw;c3:throw");
  SweepSpec sweep;
  for (int i = 0; i < 4; ++i) {
    sweep.add_cell("c" + std::to_string(i),
                   small_spec("newreno", 1, 10 + static_cast<uint64_t>(i)));
  }
  SweepOptions opts = quiet_options();
  opts.jobs = 1;  // deterministic claim order
  opts.max_failures = 1;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  EXPECT_EQ(outcomes[0].status, CellStatus::kFailed);
  EXPECT_EQ(outcomes[1].status, CellStatus::kSkipped);
  EXPECT_EQ(outcomes[2].status, CellStatus::kSkipped);
  EXPECT_EQ(outcomes[3].status, CellStatus::kSkipped);
  EXPECT_EQ(executor.summary().failed, 1);
  EXPECT_EQ(executor.summary().skipped, 3);
  EXPECT_EQ(outcomes[1].attempts, 0);
}

TEST(SweepSupervisor, FailFastStillThrowsTheOriginalException) {
  ScopedEnv env("CCAS_FAIL_CELL", "boom:throw");
  SweepSpec sweep;
  sweep.add_cell("boom", small_spec());
  SweepOptions opts = quiet_options();
  opts.fail_fast = true;
  SweepExecutor executor(opts);
  EXPECT_THROW((void)executor.run(sweep), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Quarantine.
// ---------------------------------------------------------------------------

TEST(SweepSupervisor, QuarantineFileCarriesAReplayCommand) {
  TempDir dir("quarantine");
  ScopedEnv env("CCAS_FAIL_CELL", "victim:throw");
  SweepSpec sweep;
  sweep.add_cell("victim", small_spec("newreno", 2, 42));
  SweepOptions opts = quiet_options();
  opts.quarantine_dir = dir.str();
  opts.supervision.max_cell_events = 123456;
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes[0].status, CellStatus::kFailed);

  const std::string path =
      dir.str() + "/" + cache_key_hex(outcomes[0].cache_key) + ".repro";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("# class: exception"), std::string::npos);
  EXPECT_NE(contents.find("# cell: victim"), std::string::npos);
  // The replay line reconstructs the injection for ccas_run's "seed=N"
  // cell naming, the spec flags, and the budget ceilings.
  EXPECT_NE(contents.find("CCAS_FAIL_CELL='seed=42:throw'"), std::string::npos);
  EXPECT_NE(contents.find("ccas_run"), std::string::npos);
  EXPECT_NE(contents.find("--seed=42"), std::string::npos);
  EXPECT_NE(contents.find("--setting=edge"), std::string::npos);
  EXPECT_NE(contents.find("--cell-events=123456"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

TEST(SweepManifest, JournalRoundTrips) {
  TempDir dir("journal");
  {
    SweepManifest manifest(dir.str(), "salt-a");
    manifest.record_ok(0x1111, 1);
    CellFailure f{"cell-b", FailureClass::kBudgetEvents,
                  "event budget: line one\nline two", 0x2222, 3};
    manifest.record_failure(f);
  }
  SweepManifest manifest(dir.str(), "salt-a");
  EXPECT_EQ(manifest.size(), 2u);
  const ManifestRecord* ok = manifest.find(0x1111);
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->attempts, 1);
  const ManifestRecord* fail = manifest.find(0x2222);
  ASSERT_NE(fail, nullptr);
  EXPECT_FALSE(fail->ok);
  EXPECT_EQ(fail->cls, FailureClass::kBudgetEvents);
  EXPECT_EQ(fail->attempts, 3);
  // The `what` is flattened to one journal-safe line.
  EXPECT_EQ(fail->what.find('\n'), std::string::npos);
  EXPECT_EQ(manifest.find(0x3333), nullptr);
}

TEST(SweepManifest, SaltMismatchIsRefused) {
  TempDir dir("salt");
  { SweepManifest manifest(dir.str(), "salt-a"); }
  EXPECT_THROW(SweepManifest(dir.str(), "salt-b"), std::invalid_argument);
}

TEST(SweepManifest, ExecutorRefusesAMismatchedResumeDir) {
  TempDir dir("salt_exec");
  { SweepManifest manifest(dir.str(), std::string(kSweepCodeSalt)); }
  SweepSpec sweep;
  sweep.add_cell("cell", small_spec());
  SweepOptions opts = quiet_options();
  opts.resume_dir = dir.str();
  opts.cache_salt = "ccas-sim-v999";
  SweepExecutor executor(opts);
  EXPECT_THROW((void)executor.run(sweep), std::invalid_argument);
}

TEST(SweepManifest, TornTailLineIsSkipped) {
  TempDir dir("torn");
  {
    SweepManifest manifest(dir.str(), "salt-a");
    manifest.record_ok(0xaaaa, 1);
  }
  {
    std::ofstream out(dir.str() + "/manifest.log", std::ios::app);
    out << "cell 000000000000bbbb o";  // killed mid-append, no newline
  }
  SweepManifest manifest(dir.str(), "salt-a");
  EXPECT_EQ(manifest.size(), 1u);
  EXPECT_NE(manifest.find(0xaaaa), nullptr);
  EXPECT_EQ(manifest.find(0xbbbb), nullptr);
}

TEST(SweepManifest, LaterDuplicateRecordWins) {
  TempDir dir("dup");
  {
    SweepManifest manifest(dir.str(), "salt-a");
    CellFailure f{"cell", FailureClass::kCacheIo, "transient", 0xcccc, 2};
    manifest.record_failure(f);
    manifest.record_ok(0xcccc, 3);  // a successful retry on resume
  }
  SweepManifest manifest(dir.str(), "salt-a");
  EXPECT_EQ(manifest.size(), 1u);
  const ManifestRecord* rec = manifest.find(0xcccc);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->ok);
  EXPECT_EQ(rec->attempts, 3);
}

// ---------------------------------------------------------------------------
// Resume.
// ---------------------------------------------------------------------------

SweepSpec three_cell_sweep() {
  SweepSpec sweep;
  sweep.add_cell("s1", small_spec("newreno", 2, 1));
  sweep.add_cell("s2", small_spec("newreno", 2, 2));
  sweep.add_cell("s3", small_spec("newreno", 2, 3));
  return sweep;
}

TEST(SweepResume, SecondRunServesEveryCellFromTheManifest) {
  TempDir dir("resume_full");
  const SweepSpec sweep = three_cell_sweep();

  SweepOptions opts = quiet_options();
  opts.resume_dir = dir.str();
  SweepExecutor first(opts);
  const auto cold = first.run(sweep);
  EXPECT_EQ(first.summary().resumed, 0);

  SweepExecutor second(opts);
  const auto resumed = second.run(sweep);
  EXPECT_EQ(second.summary().resumed, 3);
  EXPECT_EQ(second.summary().from_cache, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(resumed[i].resumed);
    EXPECT_EQ(digest(cold[i].result), digest(resumed[i].result));
  }
}

TEST(SweepResume, InterruptedSweepResumesByteIdentically) {
  // Uninterrupted reference.
  const SweepSpec sweep = three_cell_sweep();
  SweepExecutor ref(quiet_options());
  const auto reference = ref.run(sweep);

  TempDir dir("resume_kill");
  SweepOptions opts = quiet_options();
  opts.resume_dir = dir.str();
  opts.jobs = 1;
  {
    // "Kill" mid-sweep: the injected throw on s2 plus max_failures=1
    // aborts after s1 completed and s2 failed; s3 is never claimed.
    ScopedEnv env("CCAS_FAIL_CELL", "s2:throw");
    SweepOptions interrupted = opts;
    interrupted.max_failures = 1;
    SweepExecutor executor(interrupted);
    const auto outcomes = executor.run(sweep);
    EXPECT_EQ(outcomes[0].status, CellStatus::kOk);
    EXPECT_EQ(outcomes[1].status, CellStatus::kFailed);
    EXPECT_EQ(outcomes[2].status, CellStatus::kSkipped);
  }

  // Resume without the injection: s1 is served from the manifest, the
  // journaled failure on s2 is re-attempted (and now succeeds), s3 runs.
  SweepExecutor executor(opts);
  const auto outcomes = executor.run(sweep);
  EXPECT_EQ(executor.summary().resumed, 1);
  EXPECT_EQ(executor.summary().failed, 0);
  ASSERT_EQ(outcomes.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].status, CellStatus::kOk);
    EXPECT_EQ(digest(reference[i].result), digest(outcomes[i].result))
        << "cell " << i;
  }
}

TEST(SweepResume, TracedCellsAlwaysRecompute) {
  TempDir dir("resume_traced");
  SweepSpec sweep;
  ExperimentSpec spec = small_spec();
  spec.trace_interval = TimeDelta::seconds(1);
  sweep.add_cell("traced", spec);

  SweepOptions opts = quiet_options();
  opts.resume_dir = dir.str();
  SweepExecutor first(opts);
  (void)first.run(sweep);
  SweepExecutor second(opts);
  const auto outcomes = second.run(sweep);
  EXPECT_EQ(second.summary().resumed, 0);
  EXPECT_FALSE(outcomes[0].result.trace.empty());
}

// ---------------------------------------------------------------------------
// Result-cache write hardening.
// ---------------------------------------------------------------------------

TEST(ResultCacheHardening, InjectedTornWriteIsRepairedByRetry) {
  TempDir dir("torn_write");
  ResultCache cache(dir.str());
  const ExperimentSpec spec = small_spec();
  const ExperimentResult result = run_experiment(spec);
  const uint64_t key = spec_cache_key(spec);

  cache.inject_write_failures(1);
  EXPECT_TRUE(cache.store(key, result));  // verify-after-rename + retry
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(digest(result), digest(*back));
}

TEST(ResultCacheHardening, ExhaustedWriteRetriesReportFailure) {
  TempDir dir("exhausted");
  ResultCache cache(dir.str());
  const ExperimentSpec spec = small_spec();
  const ExperimentResult result = run_experiment(spec);
  cache.inject_write_failures(ResultCache::kStoreAttempts);
  EXPECT_FALSE(cache.store(spec_cache_key(spec), result));
}

TEST(ResultCacheHardening, TruncatedEntryTriggersRecompute) {
  TempDir dir("truncated");
  const SweepSpec sweep = three_cell_sweep();
  SweepOptions opts = quiet_options();
  opts.cache_dir = dir.str();
  SweepExecutor cold(opts);
  const auto reference = cold.run(sweep);

  // Truncate one entry on disk to half its size.
  const std::string victim =
      dir.str() + "/" + cache_key_hex(reference[1].cache_key) + ".ccres";
  const auto full_size = fs::file_size(victim);
  fs::resize_file(victim, full_size / 2);

  SweepExecutor warm(opts);
  const auto outcomes = warm.run(sweep);
  EXPECT_EQ(warm.summary().from_cache, 2);  // the truncated one recomputed
  EXPECT_FALSE(outcomes[1].from_cache);
  EXPECT_EQ(digest(reference[1].result), digest(outcomes[1].result));

  // The recompute rewrote the entry; a third run is fully cached again.
  SweepExecutor third(opts);
  (void)third.run(sweep);
  EXPECT_EQ(third.summary().from_cache, 3);
}

// ---------------------------------------------------------------------------
// Spec -> CLI rendering.
// ---------------------------------------------------------------------------

TEST(SpecCli, RoundTripReproducesTheCacheKey) {
  // Awkward values on purpose: none are exactly representable in binary,
  // so the renderer's ULP nudging has to do real work against the
  // truncating seconds_f/bps_f transforms.
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::bps(7'300'001);
  spec.scenario.net.buffer_bytes = 123'457;
  spec.scenario.stagger = TimeDelta::nanos(123'456'789);
  spec.scenario.warmup = TimeDelta::nanos(987'654'321);
  spec.scenario.measure = TimeDelta::nanos(2'000'000'003);
  spec.scenario.net.jitter = TimeDelta::nanos(333'333);
  spec.groups.push_back(FlowGroup{"newreno", 2, TimeDelta::nanos(20'123'457)});
  spec.groups.push_back(FlowGroup{"cubic", 3, TimeDelta::millis(40)});
  spec.seed = 424242;
  ImpairmentConfig& imp = spec.scenario.net.impairments;
  imp.loss = 0.0123;
  imp.ge.p_good_to_bad = 0.001;
  imp.ge.p_bad_to_good = 0.1;
  imp.ge.loss_bad = 0.3;
  imp.ge.loss_good = 0.0001;
  imp.duplicate = 0.002;
  imp.reorder = 0.01;
  imp.reorder_delay = TimeDelta::nanos(1'234'567);
  imp.jitter = TimeDelta::nanos(45'678);
  imp.jitter_dist = ImpairmentConfig::JitterDist::kNormal;
  LinkFault down;
  down.at = Time::nanos(100'000'007);
  down.kind = LinkFault::Kind::kDown;
  LinkFault up;
  up.at = Time::nanos(200'000'011);
  up.kind = LinkFault::Kind::kUp;
  LinkFault rate;
  rate.at = Time::nanos(300'000'013);
  rate.kind = LinkFault::Kind::kRate;
  rate.rate = DataRate::bps(5'000'017);
  LinkFault buffer;
  buffer.at = Time::nanos(400'000'019);
  buffer.kind = LinkFault::Kind::kBuffer;
  buffer.buffer_bytes = 98'765;
  imp.faults = {down, up, rate, buffer};
  spec.tcp.sack_enabled = false;
  spec.tcp.rto_rearm_slack = TimeDelta::nanos(123'457);
  spec.receiver.delayed_ack = false;
  spec.receiver.gro_enabled = false;
  spec.trace_interval = TimeDelta::nanos(500'000'009);

  const SpecCliRendering rendering = spec_to_cli(spec);
  EXPECT_TRUE(rendering.notes.empty())
      << "unexpected note: " << rendering.notes.front();
  const CliOptions parsed = parse_cli(rendering.args);
  EXPECT_EQ(spec_cache_key(spec), spec_cache_key(parsed.spec))
      << spec_to_cli_command(spec);
  EXPECT_EQ(canonical_spec_bytes(spec), canonical_spec_bytes(parsed.spec));
}

TEST(SpecCli, SimpleSpecRoundTripsAndNamesTheTool) {
  const ExperimentSpec spec = small_spec("cubic", 4, 11);
  const CliOptions parsed = parse_cli(spec_to_cli(spec).args);
  EXPECT_EQ(spec_cache_key(spec), spec_cache_key(parsed.spec));
  const std::string cmd = spec_to_cli_command(spec);
  EXPECT_EQ(cmd.rfind("ccas_run --setting=edge", 0), 0u) << cmd;
}

TEST(SpecCli, UnrepresentableFieldsBecomeNotes) {
  ExperimentSpec spec = small_spec();
  spec.scenario.net.num_pairs = 7;
  spec.record_congestion_log = true;
  const SpecCliRendering rendering = spec_to_cli(spec);
  EXPECT_EQ(rendering.notes.size(), 2u);
}

// ---------------------------------------------------------------------------
// Property test: random faulty sweeps.
// ---------------------------------------------------------------------------

TEST(SweepSupervisorProperty, RandomlyFaultedSweepsKeepHealthyCellsIntact) {
  // 100 random tiny sweeps, each with one injected fault. Invariants:
  // the supervised run always completes, the victim fails with the
  // expected class (or succeeds via retire when transient), healthy cells
  // are byte-identical to their unsupervised runs, and a manifest written
  // during the faulted run resumes byte-identically.
  std::mt19937 rng(20260805);
  std::map<uint64_t, std::string> unsupervised;  // cache key -> digest

  const InjectedFault fault_pool[] = {InjectedFault::kThrow,
                                      InjectedFault::kAudit,
                                      InjectedFault::kEvents,
                                      InjectedFault::kRss,
                                      InjectedFault::kCacheIo,
                                      InjectedFault::kHang};
  int hang_budget = 4;  // hangs cost ~100ms of watchdog each; bound them

  for (int iter = 0; iter < 100; ++iter) {
    const int cells = 2 + static_cast<int>(rng() % 3);  // 2..4
    SweepSpec sweep;
    std::set<std::pair<uint64_t, int>> used;
    for (int c = 0; c < cells; ++c) {
      uint64_t seed;
      int flows;
      do {  // distinct specs: duplicate hashes would share manifest records
        seed = 1 + rng() % 50;
        flows = 1 + static_cast<int>(rng() % 2);
      } while (!used.emplace(seed, flows).second);
      sweep.add_cell("cell" + std::to_string(c) + "_s" + std::to_string(seed) +
                         "_f" + std::to_string(flows),
                     tiny_spec(seed, flows));
    }
    const size_t victim = rng() % sweep.cells.size();
    InjectedFault fault = fault_pool[rng() % std::size(fault_pool)];
    if (fault == InjectedFault::kHang && hang_budget-- <= 0) {
      fault = InjectedFault::kThrow;
    }
    // cacheio with count 5 exhausts retries=2; others fail first attempt.
    const std::string injection =
        sweep.cells[victim].name + ":" + injected_fault_name(fault) +
        (fault == InjectedFault::kCacheIo ? ":5" : "");

    SweepOptions opts = quiet_options();
    opts.jobs = 1 + static_cast<int>(rng() % 3);
    opts.supervision.retries = 2;
    if (fault == InjectedFault::kHang) {
      opts.supervision.cell_timeout = TimeDelta::millis(100);
    }
    TempDir dir("prop" + std::to_string(iter));
    opts.resume_dir = dir.str();

    std::vector<CellOutcome> outcomes;
    {
      ScopedEnv env("CCAS_FAIL_CELL", injection);
      SweepExecutor executor(opts);
      outcomes = executor.run(sweep);
    }
    ASSERT_EQ(outcomes.size(), sweep.cells.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (i == victim) {
        ASSERT_EQ(outcomes[i].status, CellStatus::kFailed)
            << "iter " << iter << " fault " << injected_fault_name(fault);
        continue;
      }
      ASSERT_EQ(outcomes[i].status, CellStatus::kOk) << "iter " << iter;
      auto [it, fresh] =
          unsupervised.try_emplace(outcomes[i].cache_key, std::string());
      if (fresh) it->second = digest(run_experiment(sweep.cells[i].spec));
      EXPECT_EQ(digest(outcomes[i].result), it->second)
          << "iter " << iter << " cell " << sweep.cells[i].name;
    }

    // Resume without the injection: journaled-ok cells are served, the
    // failed victim re-runs clean, and every digest matches.
    SweepExecutor resumed(opts);
    const auto resumed_outcomes = resumed.run(sweep);
    EXPECT_EQ(resumed.summary().failed, 0) << "iter " << iter;
    EXPECT_EQ(resumed.summary().resumed,
              static_cast<int>(sweep.cells.size()) - 1)
        << "iter " << iter;
    for (size_t i = 0; i < resumed_outcomes.size(); ++i) {
      ASSERT_EQ(resumed_outcomes[i].status, CellStatus::kOk);
      auto [it, fresh] = unsupervised.try_emplace(
          resumed_outcomes[i].cache_key, std::string());
      if (fresh) it->second = digest(run_experiment(sweep.cells[i].spec));
      EXPECT_EQ(digest(resumed_outcomes[i].result), it->second)
          << "iter " << iter << " resumed cell " << sweep.cells[i].name;
    }
  }
}

}  // namespace
}  // namespace ccas::sweep
