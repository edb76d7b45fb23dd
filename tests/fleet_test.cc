// Tests for the sweep fleet (src/sweep/fleet/): lease lifecycle with an
// injected clock (claim exclusivity, renewal, expiry reclamation through
// the rename-steal, fencing-token rejection of resurrected holders), the
// job store (freeze/join/verify, salt and grid refusal, torn repair),
// multi-writer manifest semantics (duplicate digests, determinism
// violations, reload), concurrent ResultCache writers, the worker's
// claim → compute → commit loop (adoption, re-attempts, quarantine,
// stall timeout), supervision parity with the sweep executor under every
// injected failure class, N-worker byte-identity against a serial sweep,
// and a randomized kill/resume property test that must converge to the
// same manifest bytes as a single worker.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/runner.h"
#include "src/sweep/executor.h"
#include "src/sweep/fleet/lease.h"
#include "src/sweep/fleet/store.h"
#include "src/sweep/fleet/worker.h"
#include "src/sweep/manifest.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"

namespace ccas::sweep::fleet {
namespace {

namespace fs = std::filesystem;

// A cheap but non-trivial spec (mirrors sweep_supervisor_test.cc).
ExperimentSpec tiny_spec(uint64_t seed, int flows = 2) {
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

SweepSpec tiny_sweep(int cells) {
  SweepSpec sweep;
  sweep.name = "fleet_test";
  for (int i = 0; i < cells; ++i) {
    sweep.add_cell("seed=" + std::to_string(i + 1),
                   tiny_spec(static_cast<uint64_t>(i + 1)));
  }
  return sweep;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::current_path() /
            ("fleet_test_" + tag + "_" +
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

FleetOptions quiet_fleet(const std::string& dir, const std::string& id) {
  FleetOptions opts;
  opts.dir = dir;
  opts.worker_id = id;
  opts.progress = false;
  return opts;
}

const std::string kSalt{kSweepCodeSalt};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Lease lifecycle (injected clock).
// ---------------------------------------------------------------------------

TEST(FleetLease, ClaimIsExclusiveUntilExpiry) {
  TempDir dir("lease_excl");
  uint64_t now = 1'000;
  const ClockMsFn clock = [&now] { return now; };
  LeaseDir a(dir.str(), "a", 100, clock);
  LeaseDir b(dir.str(), "b", 100, clock);

  const auto la = a.claim(42);
  ASSERT_TRUE(la.has_value());
  EXPECT_EQ(la->fence, 1u);
  EXPECT_EQ(la->worker, "a");
  EXPECT_TRUE(a.still_held(*la));
  // A live lease cannot be claimed by anyone else — including its own
  // worker id through a second claim path.
  EXPECT_FALSE(b.claim(42).has_value());
  EXPECT_FALSE(a.claim(42).has_value());

  now += 99;  // not yet expired
  EXPECT_FALSE(b.claim(42).has_value());
  now += 2;  // past expires
  const auto lb = b.claim(42);
  ASSERT_TRUE(lb.has_value());
  EXPECT_EQ(lb->fence, 2u) << "reclaim must inherit the stolen fence + 1";
  EXPECT_EQ(lb->worker, "b");
}

TEST(FleetLease, RenewalExtendsAndFencingRejectsResurrectedHolder) {
  TempDir dir("lease_fence");
  uint64_t now = 0;
  const ClockMsFn clock = [&now] { return now; };
  LeaseDir a(dir.str(), "a", 100, clock);
  LeaseDir b(dir.str(), "b", 100, clock);

  const auto la = a.claim(7);
  ASSERT_TRUE(la.has_value());
  now += 90;
  ASSERT_TRUE(a.renew(*la));  // pushes expiry to 190
  now += 90;
  EXPECT_FALSE(b.claim(7).has_value()) << "renewal must extend the lease";

  now += 50;  // 230 > 190: expired mid-compute
  const auto lb = b.claim(7);
  ASSERT_TRUE(lb.has_value());
  // The resurrected original holder must see its handle rejected at
  // every gate: renew, still_held, and release (which must not unlink
  // the new holder's lease).
  EXPECT_FALSE(a.renew(*la));
  EXPECT_FALSE(a.still_held(*la));
  a.release(*la);
  EXPECT_TRUE(b.still_held(*lb));
}

TEST(FleetLease, ReleaseFreesTheNameAndFenceRestartsSafely) {
  TempDir dir("lease_release");
  uint64_t now = 0;
  const ClockMsFn clock = [&now] { return now; };
  LeaseDir a(dir.str(), "a", 100, clock);

  const auto first = a.claim(9);
  ASSERT_TRUE(first.has_value());
  a.release(*first);
  EXPECT_FALSE(a.still_held(*first));
  const auto second = a.claim(9);
  ASSERT_TRUE(second.has_value());
  // A fresh O_EXCL claim restarts at fence 1; exclusion rests on the
  // (worker, fence) pair, which a worker never reuses while a prior
  // handle to the same cell is live.
  EXPECT_EQ(second->fence, 1u);
}

TEST(FleetLease, TornLeaseBodyIsImmediatelyReclaimable) {
  TempDir dir("lease_torn");
  uint64_t now = 0;
  const ClockMsFn clock = [&now] { return now; };
  LeaseDir a(dir.str(), "a", 1'000'000, clock);
  // The creator died between O_EXCL create and its single write: an
  // empty body. The TTL must not apply — the writer window is two
  // syscalls wide, not a compute.
  std::ofstream(a.lease_path(5)).close();
  const auto lease = a.claim(5);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->fence, 1u);
}

TEST(FleetLease, RejectsZeroTtl) {
  TempDir dir("lease_ttl");
  EXPECT_THROW(LeaseDir(dir.str(), "a", 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Randomized kill/resume property test: workers that die mid-cell, get
// reclaimed, and resurrect with stale handles must converge to exactly
// the manifest a single flawless worker would write.
// ---------------------------------------------------------------------------

TEST(FleetLeaseProperty, RandomKillResumeConvergesToSerialManifestBytes) {
  constexpr int kCells = 6;
  constexpr int kWorkers = 3;
  constexpr uint64_t kTtl = 100;
  std::vector<uint64_t> hashes;
  for (int i = 0; i < kCells; ++i) {
    hashes.push_back(0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1));
  }
  const auto digest_of = [](uint64_t hash) { return hash ^ 0xabcdef123456ULL; };

  // The reference: one flawless worker journals every cell once.
  TempDir ref_dir("prop_ref");
  std::string reference;
  {
    SweepManifest ref(ref_dir.str(), kSalt);
    for (const uint64_t h : hashes) ref.record_ok(h, 1, digest_of(h), "ref", 1);
    reference = ref.canonical_text();
  }

  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 25; ++round) {
    TempDir dir("prop_" + std::to_string(round));
    uint64_t now = 1;
    const ClockMsFn clock = [&now] { return now; };
    SweepManifest manifest(dir.str(), kSalt);
    std::vector<std::unique_ptr<LeaseDir>> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.push_back(std::make_unique<LeaseDir>(
          dir.str() + "/leases", "w" + std::to_string(w), kTtl, clock));
    }
    // Handles of workers "killed" mid-cell: their leases silently expire;
    // on resurrection they retry the commit gate and must be rejected
    // whenever the cell was reclaimed in the meantime.
    std::vector<std::pair<int, Lease>> zombies;
    int stale_rejections = 0;

    const auto covered = [&](uint64_t h) {
      const auto rec = manifest.lookup(h);
      return rec.has_value() && rec->ok;
    };
    const auto all_covered = [&] {
      for (const uint64_t h : hashes) {
        if (!covered(h)) return false;
      }
      return true;
    };

    for (int step = 0; step < 10'000 && !all_covered(); ++step) {
      const int action = static_cast<int>(rng() % 10);
      if (action < 6) {
        // A worker claims the first uncovered cell and either commits or
        // dies mid-cell.
        const int w = static_cast<int>(rng() % kWorkers);
        for (const uint64_t h : hashes) {
          if (covered(h)) continue;
          auto lease = workers[static_cast<size_t>(w)]->claim(h);
          if (!lease) continue;
          if (rng() % 3 == 0) {
            zombies.emplace_back(w, *lease);  // kill -9 mid-compute
          } else {
            manifest.record_ok(h, 1, digest_of(h), "w" + std::to_string(w),
                               lease->fence);
            workers[static_cast<size_t>(w)]->release(*lease);
          }
          break;
        }
      } else if (action < 8 && !zombies.empty()) {
        // A zombie resurrects and runs the commit gate.
        const size_t z = rng() % zombies.size();
        auto [w, lease] = zombies[z];
        zombies.erase(zombies.begin() + static_cast<long>(z));
        if (workers[static_cast<size_t>(w)]->still_held(lease)) {
          // Not reclaimed yet: the commit is legitimate (and the digest
          // identical, results being deterministic).
          manifest.record_ok(lease.spec_hash, 1, digest_of(lease.spec_hash),
                             "w" + std::to_string(w), lease.fence);
          workers[static_cast<size_t>(w)]->release(lease);
        } else {
          // Reclaimed: every gate must reject the stale handle.
          EXPECT_FALSE(workers[static_cast<size_t>(w)]->renew(lease));
          ++stale_rejections;
        }
      } else {
        now += rng() % (2 * kTtl);  // let leases expire
      }
    }

    ASSERT_TRUE(all_covered()) << "round " << round << " did not converge";
    manifest.reload();
    EXPECT_EQ(manifest.canonical_text(), reference) << "round " << round;
    for (const uint64_t h : hashes) {
      const auto rec = manifest.lookup(h);
      ASSERT_TRUE(rec.has_value());
      EXPECT_TRUE(rec->ok) << "no determinism violation may appear when every "
                              "commit carries the same digest";
    }
    (void)stale_rejections;
  }
}

// ---------------------------------------------------------------------------
// Job store: freeze, join, verify, repair.
// ---------------------------------------------------------------------------

TEST(FleetStore, FreezesGridOnceAndJoinersVerify) {
  TempDir dir("store_freeze");
  const SweepSpec sweep = tiny_sweep(3);
  FleetStore first(dir.str(), sweep, kSalt);
  ASSERT_EQ(first.grid().size(), 3u);
  EXPECT_EQ(first.grid()[0].name, "seed=1");
  EXPECT_EQ(first.grid()[0].spec_hash, spec_cache_key(sweep.cells[0].spec, kSalt));

  // A second worker with the same grid joins cleanly and sees the same
  // frozen file (uncovered == whole grid: nothing journaled yet).
  FleetStore second(dir.str(), sweep, kSalt);
  EXPECT_EQ(second.grid().size(), 3u);
  EXPECT_EQ(second.uncovered().size(), 3u);
}

TEST(FleetStore, RefusesMismatchedGridAndSalt) {
  TempDir dir("store_mismatch");
  FleetStore first(dir.str(), tiny_sweep(3), kSalt);
  // Different cell count.
  EXPECT_THROW(FleetStore(dir.str(), tiny_sweep(4), kSalt),
               std::invalid_argument);
  // Same count, different spec (hence hash).
  SweepSpec other = tiny_sweep(2);
  other.add_cell("seed=99", tiny_spec(99));
  EXPECT_THROW(FleetStore(dir.str(), other, kSalt), std::invalid_argument);
  // Different salt: refused before any grid comparison.
  EXPECT_THROW(FleetStore(dir.str(), tiny_sweep(3), "other-salt"),
               std::invalid_argument);
}

TEST(FleetStore, RepairsTornJobSpecAndReportOnlyRefuses) {
  TempDir dir("store_torn");
  fs::create_directories(dir.str());
  {
    // A torn freeze: header and one cell line, no `end` trailer.
    std::ofstream out(dir.str() + "/job.spec");
    out << "ccas-fleet-job v1 salt=" << kSalt << "\n"
        << "cell 0123456789abcdef seed=1\n";
  }
  // Report-only has no grid to re-freeze from.
  EXPECT_THROW(FleetStore(dir.str(), kSalt), std::runtime_error);
  // A worker repairs it from its own grid.
  const SweepSpec sweep = tiny_sweep(2);
  FleetStore repaired(dir.str(), sweep, kSalt);
  EXPECT_EQ(repaired.grid().size(), 2u);
  // And the repaired file now serves report-only joins.
  FleetStore report(dir.str(), kSalt);
  EXPECT_EQ(report.grid().size(), 2u);
}

TEST(FleetStore, ReportOnlyRequiresAnExistingStore) {
  TempDir dir("store_absent");
  EXPECT_THROW(FleetStore(dir.str(), kSalt), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Multi-writer manifest: duplicate digests, determinism violations.
// ---------------------------------------------------------------------------

TEST(FleetManifest, AgreeingDuplicateRecordsCoexist) {
  TempDir dir("mf_dup_ok");
  SweepManifest m(dir.str(), kSalt);
  m.record_ok(11, 1, 0xaaa, "w1", 1);
  m.record_ok(11, 2, 0xaaa, "w2", 3);  // same digest: benign double-commit
  const auto rec = m.lookup(11);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->ok);
  EXPECT_EQ(rec->digest, 0xaaau);
  // Replay from the journal agrees.
  m.reload();
  EXPECT_TRUE(m.lookup(11)->ok);
}

TEST(FleetManifest, DivergentDigestsBecomeStickyDeterminismViolation) {
  TempDir dir("mf_dup_bad");
  {
    SweepManifest m(dir.str(), kSalt);
    m.record_ok(11, 1, 0xaaa, "w1", 1);
    m.record_ok(11, 1, 0xbbb, "w2", 2);  // divergent: the broken contract
    const auto rec = m.lookup(11);
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->ok);
    EXPECT_EQ(rec->cls, FailureClass::kDeterminism);
    EXPECT_NE(rec->what.find("digest mismatch"), std::string::npos);
    // Sticky: a third agreeing commit cannot settle which side was right.
    m.record_ok(11, 1, 0xaaa, "w3", 3);
    EXPECT_EQ(m.lookup(11)->cls, FailureClass::kDeterminism);
  }
  // A fresh replay of the journal reconstructs the violation — the
  // structured failure, not a crash.
  SweepManifest replay(dir.str(), kSalt);
  const auto rec = replay.lookup(11);
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->ok);
  EXPECT_EQ(rec->cls, FailureClass::kDeterminism);
  EXPECT_NE(replay.canonical_text().find("determinism-violation"),
            std::string::npos);
}

TEST(FleetManifest, ReloadFoldsInRecordsFromOtherWriters) {
  TempDir dir("mf_reload");
  SweepManifest a(dir.str(), kSalt);
  SweepManifest b(dir.str(), kSalt);  // a second process, same journal
  b.record_ok(21, 1, 0x123, "b", 1);
  EXPECT_FALSE(a.lookup(21).has_value());
  a.reload();
  const auto rec = a.lookup(21);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->ok);
  EXPECT_EQ(rec->digest, 0x123u);
  EXPECT_EQ(rec->worker, "b");
  // Both instances wrote a header race-free (or tolerated the duplicate).
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
}

TEST(FleetManifest, DeterminismViolationIsDeterministicNotTransient) {
  EXPECT_FALSE(failure_is_transient(FailureClass::kDeterminism));
  EXPECT_FALSE(failure_is_budget(FailureClass::kDeterminism));
  const auto back = failure_class_from_name("determinism-violation");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, FailureClass::kDeterminism);
}

// ---------------------------------------------------------------------------
// ResultCache under concurrent writers.
// ---------------------------------------------------------------------------

TEST(FleetResultCache, TwoWriterRaceLeavesAVerifiableEntry) {
  TempDir dir("cache_race");
  const ExperimentResult result = run_experiment(tiny_spec(3), nullptr);
  const std::string expected = serialize_result(result);
  constexpr uint64_t kKey = 0xfeedbeef;

  // Two caches on one directory model two worker processes; one of them
  // also suffers injected torn writes, which verify-after-rename must
  // absorb without ever publishing a torn entry.
  ResultCache a(dir.str());
  ResultCache b(dir.str());
  std::atomic<int> failures{0};
  std::thread ta([&] {
    for (int i = 0; i < 30; ++i) {
      if (i % 7 == 0) a.inject_write_failures(1);
      if (!a.store(kKey, result)) failures.fetch_add(1);
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 30; ++i) {
      if (!b.store(kKey, result)) failures.fetch_add(1);
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0) << "same-bytes racers must all succeed";

  const auto loaded = ResultCache(dir.str()).load(kKey);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize_result(*loaded), expected);
  // No temp litter: every unique temp name was renamed or unlinked.
  int temps = 0;
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    if (entry.path().string().find(".tmp.") != std::string::npos) ++temps;
  }
  EXPECT_EQ(temps, 0);
}

// ---------------------------------------------------------------------------
// FleetWorker: options validation, single-worker completion, adoption,
// failures, re-attempts, stall timeout.
// ---------------------------------------------------------------------------

TEST(FleetWorker, ValidatesOptions) {
  EXPECT_THROW(FleetWorker(FleetOptions{}), std::invalid_argument);  // no dir
  FleetOptions bad_ttl = quiet_fleet("somewhere", "w");
  bad_ttl.lease_ttl_ms = 0;
  EXPECT_THROW(FleetWorker{bad_ttl}, std::invalid_argument);
  FleetOptions bad_hb = quiet_fleet("somewhere", "w");
  bad_hb.lease_ttl_ms = 1'000;
  bad_hb.heartbeat_ms = 1'000;  // must be strictly shorter
  EXPECT_THROW(FleetWorker{bad_hb}, std::invalid_argument);
  FleetOptions bad_id = quiet_fleet("somewhere", "w/1");
  EXPECT_THROW(FleetWorker{bad_id}, std::invalid_argument);
  // Defaults resolve: heartbeat to TTL/3, worker id to w<pid>.
  FleetOptions ok = quiet_fleet("somewhere", "");
  const FleetWorker worker(ok);
  EXPECT_EQ(worker.options().heartbeat_ms, 10'000u);
  EXPECT_EQ(worker.options().worker_id.rfind("w", 0), 0u);
}

TEST(FleetWorker, SingleWorkerCompletesAndMatchesSerialSweepBytes) {
  TempDir fleet_dir("worker_single");
  TempDir serial_dir("worker_single_serial");
  const SweepSpec sweep = tiny_sweep(4);

  FleetWorker worker(quiet_fleet(fleet_dir.str(), "solo"));
  const FleetSummary summary = worker.run(sweep);
  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.exit_code, 0);
  EXPECT_EQ(summary.ok, 4);
  EXPECT_EQ(summary.computed, 4);
  EXPECT_EQ(summary.lost_leases, 0);

  // The serial reference: a one-job resumable sweep of the same grid.
  SweepOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  serial.resume_dir = serial_dir.str();
  SweepExecutor executor(serial);
  (void)executor.run(sweep);

  SweepManifest fleet_manifest(fleet_dir.str(), kSalt);
  SweepManifest serial_manifest(serial_dir.str(), kSalt);
  EXPECT_EQ(fleet_manifest.canonical_text(), serial_manifest.canonical_text());
  for (const SweepCell& cell : sweep.cells) {
    const std::string name = cache_key_hex(spec_cache_key(cell.spec, kSalt));
    const std::string fleet_bytes =
        read_file(fleet_dir.str() + "/results/" + name + ".ccres");
    const std::string serial_bytes =
        read_file(serial_dir.str() + "/results/" + name + ".ccres");
    ASSERT_FALSE(fleet_bytes.empty());
    EXPECT_EQ(fleet_bytes, serial_bytes) << "cell " << cell.name;
  }
}

TEST(FleetWorker, ThreeConcurrentWorkersAreByteIdenticalToSerial) {
  TempDir fleet_dir("worker_three");
  TempDir serial_dir("worker_three_serial");
  const SweepSpec sweep = tiny_sweep(6);

  std::vector<std::thread> threads;
  std::vector<FleetSummary> summaries(3);
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      try {
        FleetWorker worker(
            quiet_fleet(fleet_dir.str(), "w" + std::to_string(w)));
        summaries[static_cast<size_t>(w)] = worker.run(sweep);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "worker " << w << " threw: " << e.what();
      }
    });
  }
  for (auto& t : threads) t.join();

  int computed = 0;
  for (const FleetSummary& s : summaries) {
    EXPECT_TRUE(s.complete);
    EXPECT_EQ(s.exit_code, 0);
    EXPECT_EQ(s.ok, 6);
    computed += s.computed + s.adopted;
  }
  // A worker may re-commit a cell another worker finished between its
  // manifest reload and its claim — benign (identical bytes, agreeing
  // digests) and deliberately allowed by the protocol. Every cell is
  // committed at least once and nothing runs away.
  EXPECT_GE(computed, 6);
  EXPECT_LE(computed, 18);
  // Every worker rendered the identical final report.
  EXPECT_EQ(summaries[0].report, summaries[1].report);
  EXPECT_EQ(summaries[1].report, summaries[2].report);

  SweepOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  serial.resume_dir = serial_dir.str();
  SweepExecutor executor(serial);
  (void)executor.run(sweep);

  SweepManifest fleet_manifest(fleet_dir.str(), kSalt);
  SweepManifest serial_manifest(serial_dir.str(), kSalt);
  EXPECT_EQ(fleet_manifest.canonical_text(), serial_manifest.canonical_text());
  for (const SweepCell& cell : sweep.cells) {
    const std::string name = cache_key_hex(spec_cache_key(cell.spec, kSalt));
    EXPECT_EQ(read_file(fleet_dir.str() + "/results/" + name + ".ccres"),
              read_file(serial_dir.str() + "/results/" + name + ".ccres"));
  }
}

TEST(FleetWorker, AdoptsResultsStoredByACrashedWorker) {
  TempDir dir("worker_adopt");
  const SweepSpec sweep = tiny_sweep(2);
  // A previous worker stored cell 1's result but died before journaling
  // it (the store-then-journal commit order makes this the only
  // mid-commit crash window).
  const uint64_t hash = spec_cache_key(sweep.cells[0].spec, kSalt);
  {
    FleetStore store(dir.str(), sweep, kSalt);
    ASSERT_TRUE(store.results().store(
        hash, run_experiment(sweep.cells[0].spec, nullptr)));
  }
  FleetWorker worker(quiet_fleet(dir.str(), "heir"));
  const FleetSummary summary = worker.run(sweep);
  EXPECT_TRUE(summary.complete);
  EXPECT_EQ(summary.adopted, 1);
  EXPECT_EQ(summary.computed, 1);
  // The adopted digest agrees with what a recompute journals elsewhere —
  // checked implicitly by the byte-identity tests above; here the record
  // simply must be ok.
  SweepManifest manifest(dir.str(), kSalt);
  EXPECT_TRUE(manifest.lookup(hash)->ok);
}

TEST(FleetWorker, JournalsFailuresQuarantinesAndReattemptsOncePerWorker) {
  TempDir dir("worker_fail");
  const SweepSpec sweep = tiny_sweep(3);
  const uint64_t hash = spec_cache_key(sweep.cells[1].spec, kSalt);
  FleetSummary first;
  {
    ScopedEnv env("CCAS_FAIL_CELL", "seed=2:throw");
    FleetWorker worker(quiet_fleet(dir.str(), "w1"));
    first = worker.run(sweep);
  }
  EXPECT_TRUE(first.complete) << "a failure record covers its cell";
  EXPECT_EQ(first.failed, 1);
  EXPECT_EQ(first.exit_code, 2);
  EXPECT_TRUE(fs::exists(dir.str() + "/quarantine/" + cache_key_hex(hash) +
                         ".repro"));

  // A second worker joining the store re-attempts the journaled failure
  // once (resume parity); without the injected fault it succeeds and
  // later-duplicate-wins turns the cell ok.
  FleetWorker worker2(quiet_fleet(dir.str(), "w2"));
  const FleetSummary second = worker2.run(sweep);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.reattempts, 1);
  EXPECT_EQ(second.failed, 0);
  EXPECT_EQ(second.exit_code, 0);
  SweepManifest manifest(dir.str(), kSalt);
  EXPECT_TRUE(manifest.lookup(hash)->ok);
}

TEST(FleetWorker, SupervisionMatchesExecutor) {
  // Both runners attempt cells through one supervised loop, so for every
  // injected failure class the executor and a fleet worker agree on each
  // cell's class, attempts and message, store the same result bytes for
  // ok cells, write byte-identical .repro files and exit with one code.
  struct Case {
    const char* inject;
    int exit_code;
    TimeDelta cell_timeout = TimeDelta::zero();
  };
  const Case cases[] = {
      {"seed=2:throw", 2},
      {"seed=2:audit", 2},
      {"seed=2:events", 3},
      {"seed=2:rss", 3},
      {"seed=2:hang", 3, TimeDelta::millis(100)},
      {"seed=2:cacheio:2", 0},  // retries=2 absorb two transient faults
      {"seed=2:cacheio:3", 4},  // the third outlasts them
  };
  const SweepSpec sweep = tiny_sweep(3);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.inject);
    ScopedEnv env("CCAS_FAIL_CELL", c.inject);
    CellSupervision supervision;
    supervision.retries = 2;
    supervision.cell_timeout = c.cell_timeout;

    TempDir quarantine("parity_quarantine");
    SweepOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    serial.supervision = supervision;
    serial.quarantine_dir = quarantine.str();
    SweepExecutor executor(serial);
    const std::vector<CellOutcome> outcomes = executor.run(sweep);

    TempDir dir("parity_fleet");
    FleetOptions opts = quiet_fleet(dir.str(), "w");
    opts.supervision = supervision;
    const FleetSummary summary = FleetWorker(opts).run(sweep);
    ASSERT_TRUE(summary.complete);

    SweepManifest manifest(dir.str(), kSalt);
    ResultCache fleet_results(dir.str() + "/results");
    std::vector<FailureClass> classes;
    for (const CellOutcome& out : outcomes) {
      SCOPED_TRACE(out.name);
      const auto rec = manifest.lookup(out.cache_key);
      ASSERT_TRUE(rec.has_value());
      ASSERT_EQ(rec->ok, out.status == CellStatus::kOk);
      EXPECT_EQ(rec->attempts, out.attempts);
      const std::string repro = "/" + cache_key_hex(out.cache_key) + ".repro";
      if (rec->ok) {
        const auto stored = fleet_results.load(out.cache_key);
        ASSERT_TRUE(stored.has_value());
        EXPECT_EQ(serialize_result(*stored), serialize_result(out.result));
        EXPECT_FALSE(fs::exists(quarantine.str() + repro));
        EXPECT_FALSE(fs::exists(dir.str() + "/quarantine" + repro));
        continue;
      }
      ASSERT_EQ(out.status, CellStatus::kFailed);
      classes.push_back(out.failure->cls);
      EXPECT_EQ(rec->cls, out.failure->cls);
      EXPECT_EQ(out.failure->attempts, out.attempts);
      EXPECT_EQ(rec->what, out.failure->what);
      const std::string executor_repro = read_file(quarantine.str() + repro);
      EXPECT_NE(executor_repro.find("CCAS_FAIL_CELL="), std::string::npos);
      EXPECT_EQ(read_file(dir.str() + "/quarantine" + repro), executor_repro);
    }
    EXPECT_EQ(failure_exit_code(classes), c.exit_code);
    EXPECT_EQ(summary.exit_code, c.exit_code);
  }
}

TEST(FleetWorker, StallTimeoutExitsIncompleteWhenACellIsHeldForever) {
  TempDir dir("worker_stall");
  const SweepSpec sweep = tiny_sweep(2);
  // A foreign holder parks a very long lease on cell 1 before the worker
  // arrives: the worker computes cell 2, then can neither claim nor wait
  // out cell 1 within its stall timeout.
  FleetStore store(dir.str(), sweep, kSalt);
  LeaseDir foreign(store.lease_dir(), "parked", 600'000);
  ASSERT_TRUE(foreign.claim(spec_cache_key(sweep.cells[0].spec, kSalt)));

  FleetOptions opts = quiet_fleet(dir.str(), "w");
  opts.stall_timeout_ms = 300;
  FleetWorker worker(opts);
  const FleetSummary summary = worker.run(sweep);
  EXPECT_FALSE(summary.complete);
  EXPECT_EQ(summary.exit_code, 5);
  EXPECT_EQ(summary.ok, 1) << "the unheld cell still completed";
  EXPECT_NE(summary.report.find("pending"), std::string::npos);
}

}  // namespace
}  // namespace ccas::sweep::fleet
