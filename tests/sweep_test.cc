// Tests for the sweep subsystem: canonical spec hashing (every field and
// the code salt must perturb the key), deterministic per-cell seeds, the
// on-disk result cache (round trip, corruption, atomicity), and the
// executor's core guarantee — results are identical at any --jobs level
// and a warm cache serves every cell.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/runner.h"
#include "src/sweep/executor.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/sweep_spec.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep {
namespace {

namespace fs = std::filesystem;

// A cheap but non-trivial spec: a few flows over a small link for a short
// simulated time, so every executor test runs in milliseconds.
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

// Temp directory under the build tree's CWD (never /tmp); removed on exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::current_path() / ("sweep_test_" + tag + "_" +
                                  std::to_string(::testing::UnitTest::GetInstance()
                                                     ->random_seed()) +
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

void expect_results_equal(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].flow_id, b.flows[i].flow_id);
    EXPECT_EQ(a.flows[i].window, b.flows[i].window);
    EXPECT_EQ(a.flows[i].goodput_bps, b.flows[i].goodput_bps);
    EXPECT_EQ(a.flows[i].segments_sent, b.flows[i].segments_sent);
    EXPECT_EQ(a.flows[i].retransmits, b.flows[i].retransmits);
    EXPECT_EQ(a.flows[i].delivered, b.flows[i].delivered);
    EXPECT_EQ(a.flows[i].congestion_events, b.flows[i].congestion_events);
    EXPECT_EQ(a.flows[i].rto_events, b.flows[i].rto_events);
    EXPECT_EQ(a.flows[i].queue_drops, b.flows[i].queue_drops);
    EXPECT_EQ(a.flows[i].packet_loss_rate, b.flows[i].packet_loss_rate);
    EXPECT_EQ(a.flows[i].cwnd_halving_rate, b.flows[i].cwnd_halving_rate);
    EXPECT_EQ(a.flows[i].mean_rtt, b.flows[i].mean_rtt);
  }
  EXPECT_EQ(a.flow_group, b.flow_group);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].cca, b.groups[i].cca);
    EXPECT_EQ(a.groups[i].count, b.groups[i].count);
    EXPECT_EQ(a.groups[i].rtt, b.groups[i].rtt);
    EXPECT_EQ(a.groups[i].aggregate_goodput_bps, b.groups[i].aggregate_goodput_bps);
    EXPECT_EQ(a.groups[i].throughput_share, b.groups[i].throughput_share);
    EXPECT_EQ(a.groups[i].jfi, b.groups[i].jfi);
  }
  EXPECT_EQ(a.queue.enqueued_packets, b.queue.enqueued_packets);
  EXPECT_EQ(a.queue.enqueued_bytes, b.queue.enqueued_bytes);
  EXPECT_EQ(a.queue.dequeued_packets, b.queue.dequeued_packets);
  EXPECT_EQ(a.queue.dropped_packets, b.queue.dropped_packets);
  EXPECT_EQ(a.queue.dropped_bytes, b.queue.dropped_bytes);
  EXPECT_EQ(a.queue.max_queued_bytes, b.queue.max_queued_bytes);
  EXPECT_EQ(a.drop_times, b.drop_times);
  EXPECT_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.measured_for, b.measured_for);
  EXPECT_EQ(a.converged_early, b.converged_early);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

// ---------------------------------------------------------------------------
// Spec hashing.
// ---------------------------------------------------------------------------

TEST(SpecHash, StableForEqualSpecs) {
  EXPECT_EQ(spec_cache_key(small_spec()), spec_cache_key(small_spec()));
  EXPECT_EQ(canonical_spec_bytes(small_spec()), canonical_spec_bytes(small_spec()));
}

TEST(SpecHash, EveryFieldPerturbsTheKey) {
  const uint64_t base = spec_cache_key(small_spec());
  std::vector<ExperimentSpec> variants;

  auto vary = [&](auto&& mutate) {
    ExperimentSpec s = small_spec();
    mutate(s);
    variants.push_back(std::move(s));
  };

  vary([](ExperimentSpec& s) { s.seed = 8; });
  vary([](ExperimentSpec& s) { s.scenario.setting = Setting::kCoreScale; });
  vary([](ExperimentSpec& s) { s.scenario.net.bottleneck_rate = DataRate::mbps(11); });
  vary([](ExperimentSpec& s) { s.scenario.net.buffer_bytes += 1; });
  vary([](ExperimentSpec& s) { s.scenario.net.num_pairs += 1; });
  vary([](ExperimentSpec& s) { s.scenario.net.edge_rate = DataRate::mbps(123); });
  vary([](ExperimentSpec& s) { s.scenario.net.edge_buffer_bytes += 1; });
  vary([](ExperimentSpec& s) { s.scenario.net.jitter += TimeDelta::micros(1); });
  vary([](ExperimentSpec& s) { s.scenario.net.jitter_seed += 1; });
  vary([](ExperimentSpec& s) { s.scenario.stagger += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.scenario.warmup += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.scenario.measure += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.groups[0].cca = "cubic"; });
  vary([](ExperimentSpec& s) { s.groups[0].count += 1; });
  vary([](ExperimentSpec& s) { s.groups[0].rtt += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) {
    s.groups.push_back(FlowGroup{"cubic", 1, TimeDelta::millis(30)});
  });
  vary([](ExperimentSpec& s) { s.tcp.initial_cwnd += 1; });
  vary([](ExperimentSpec& s) { s.tcp.max_window += 1; });
  vary([](ExperimentSpec& s) { s.tcp.dup_thresh += 1; });
  vary([](ExperimentSpec& s) { s.tcp.sack_enabled = !s.tcp.sack_enabled; });
  vary([](ExperimentSpec& s) { s.tcp.data_segments += 1; });
  vary([](ExperimentSpec& s) { s.tcp.rtt.min_rto += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.tcp.rtt.max_rto += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.tcp.rtt.initial_rto += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.receiver.delayed_ack = !s.receiver.delayed_ack; });
  vary([](ExperimentSpec& s) { s.receiver.delack_segment_threshold += 1; });
  vary([](ExperimentSpec& s) { s.receiver.delack_timeout += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.receiver.gro_enabled = !s.receiver.gro_enabled; });
  vary([](ExperimentSpec& s) { s.receiver.gro_flush_timeout += TimeDelta::micros(1); });
  vary([](ExperimentSpec& s) { s.receiver.gro_max_segments += 1; });
  vary([](ExperimentSpec& s) { s.convergence_window = TimeDelta::seconds(5); });
  vary([](ExperimentSpec& s) { s.convergence_poll += TimeDelta::millis(1); });
  vary([](ExperimentSpec& s) { s.convergence_tolerance += 0.001; });
  vary([](ExperimentSpec& s) { s.record_drop_log = !s.record_drop_log; });
  vary([](ExperimentSpec& s) { s.trace_interval = TimeDelta::seconds(1); });
  vary([](ExperimentSpec& s) { s.trace_flows.push_back(0); });

  std::set<uint64_t> keys{base};
  for (size_t i = 0; i < variants.size(); ++i) {
    const uint64_t key = spec_cache_key(variants[i]);
    EXPECT_NE(key, base) << "variant " << i << " did not perturb the key";
    keys.insert(key);
  }
  // All variants must also be pairwise distinct.
  EXPECT_EQ(keys.size(), variants.size() + 1);
}

TEST(SpecHash, SaltPerturbsTheKey) {
  const ExperimentSpec spec = small_spec();
  EXPECT_NE(spec_cache_key(spec, kSweepCodeSalt), spec_cache_key(spec, "ccas-sim-v2"));
}

TEST(SpecHash, HexKeyIs16Chars) {
  const std::string hex = cache_key_hex(spec_cache_key(small_spec()));
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------------------

TEST(CellSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_cell_seed(1, "a"), derive_cell_seed(1, "a"));
  EXPECT_NE(derive_cell_seed(1, "a"), derive_cell_seed(1, "b"));
  EXPECT_NE(derive_cell_seed(1, "a"), derive_cell_seed(2, "a"));
  EXPECT_NE(derive_cell_seed(1, "a"), 0u);

  std::set<uint64_t> seeds;
  for (int i = 0; i < 1000; ++i) {
    seeds.insert(derive_cell_seed(42, "cell-" + std::to_string(i)));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(CellSeed, AddCellKeepsSeedDerivedOverwrites) {
  SweepSpec sweep;
  sweep.base_seed = 9;
  sweep.add_cell("pinned", small_spec("newreno", 2, /*seed=*/42));
  sweep.add_cell_derived_seed("derived", small_spec("newreno", 2, /*seed=*/42));
  EXPECT_EQ(sweep.cells[0].spec.seed, 42u);
  EXPECT_EQ(sweep.cells[1].spec.seed, derive_cell_seed(9, "derived"));
}

// ---------------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------------

TEST(ResultCache, RoundTripsAResult) {
  const ExperimentResult result = run_experiment(small_spec());
  const std::string payload = serialize_result(result);
  const auto back = deserialize_result(payload);
  ASSERT_TRUE(back.has_value());
  expect_results_equal(result, *back);
}

TEST(ResultCache, StoreThenLoad) {
  TempDir dir("store_load");
  ResultCache cache(dir.str());
  const ExperimentSpec spec = small_spec();
  const ExperimentResult result = run_experiment(spec);
  const uint64_t key = spec_cache_key(spec);

  EXPECT_FALSE(cache.load(key).has_value());
  ASSERT_TRUE(cache.store(key, result));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_results_equal(result, *loaded);
  // No stray temp files left behind.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir.str())) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".ccres");
  }
  EXPECT_EQ(files, 1);
}

TEST(ResultCache, RejectsWrongKeyEntry) {
  TempDir dir("wrong_key");
  ResultCache cache(dir.str());
  const ExperimentResult result = run_experiment(small_spec());
  ASSERT_TRUE(cache.store(1, result));
  // Copy the valid entry to a different key's path: key sanity check fails.
  fs::copy_file(cache.entry_path(1), cache.entry_path(2));
  EXPECT_TRUE(cache.load(1).has_value());
  EXPECT_FALSE(cache.load(2).has_value());
}

TEST(ResultCache, DetectsTruncationAndBitFlips) {
  TempDir dir("corrupt");
  ResultCache cache(dir.str());
  const ExperimentResult result = run_experiment(small_spec());
  const uint64_t key = 99;
  ASSERT_TRUE(cache.store(key, result));
  const std::string path = cache.entry_path(key);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 64u);

  // Truncation.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // A single flipped payload byte (checksum catches it).
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // Garbage appended after a valid entry (trailing-bytes check).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("xx", 2);
  }
  EXPECT_FALSE(cache.load(key).has_value());

  // Restoring the original bytes loads again.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(ResultCache, RejectsGarbageFile) {
  TempDir dir("garbage");
  ResultCache cache(dir.str());
  {
    std::ofstream out(cache.entry_path(5), std::ios::binary);
    out << "this is not a cache entry";
  }
  EXPECT_FALSE(cache.load(5).has_value());
}

// A result built by hand, no simulation: two flows in two groups, drop and
// congestion logs, and (with `appended_blocks`) the qdisc trailer and the
// workload block, so every part of the payload format is present.
ExperimentResult hand_built_result(bool appended_blocks) {
  ExperimentResult r;
  for (uint32_t i = 0; i < 2; ++i) {
    FlowMeasurement f;
    f.flow_id = i;
    f.window = TimeDelta::seconds(3);
    f.goodput_bps = 4.5e6 + i;
    f.segments_sent = 1000 + i;
    f.retransmits = 7 + i;
    f.delivered = 990 + i;
    f.congestion_events = 3 + i;
    f.rto_events = i;
    f.queue_drops = 5 + i;
    f.packet_loss_rate = 0.005 + i * 0.001;
    f.cwnd_halving_rate = 0.003 + i * 0.001;
    f.mean_rtt = TimeDelta::micros(21'500 + i);
    if (appended_blocks) {
      f.queue_marks = 11 + i;
      f.ecn_reductions = 2 + i;
    }
    r.flows.push_back(f);
    r.flow_group.push_back(static_cast<int>(i));
    r.groups.push_back(GroupResult{i == 0 ? "newreno" : "bbr", 1,
                                   TimeDelta::millis(20 + 20 * i), 4.5e6 + i,
                                   0.5, 1.0});
    r.congestion_log.push_back(
        {Time::nanos(1'500'000'000LL + i), Time::nanos(2'500'000'000LL + i)});
  }
  r.queue.enqueued_packets = 2000;
  r.queue.enqueued_bytes = 3'000'000;
  r.queue.dequeued_packets = 1990;
  r.queue.dropped_packets = 10;
  r.queue.dropped_bytes = 15'000;
  r.queue.max_queued_bytes = 100'000;
  r.drop_times = {Time::nanos(1'200'000'000), Time::nanos(1'800'000'000),
                  Time::nanos(2'700'000'000)};
  r.aggregate_goodput_bps = 9e6 + 1;
  r.utilization = 0.9;
  r.measured_for = TimeDelta::seconds(3);
  r.sim_events = 123'456;
  if (appended_blocks) {
    r.queue.head_dropped_packets = 4;
    r.queue.head_dropped_bytes = 6000;
    r.queue.marked_packets = 21;
    r.queue.sojourn_ns_sum = 987'654'321;
    r.queue.sojourn_samples = 1990;
    r.queue.max_sojourn_ns = 4'000'000;
    WorkloadClassResult c;
    c.name = "web";
    c.cca = "cubic";
    c.arrivals = 50;
    c.rejected = 1;
    c.completed = 45;
    c.abandoned = 4;
    c.completed_segments = 900;
    c.mean_fct_s = 0.25;
    c.p50_fct_s = 0.2;
    c.p90_fct_s = 0.4;
    c.p99_fct_s = 0.8;
    c.p999_fct_s = 0.9;
    c.mean_slowdown = 1.75;
    r.workload_classes.push_back(c);
    r.workload_goodput_bps = 1.25e6;
  }
  return r;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Silences the cache's per-miss warnings for the scope of a test that
// provokes hundreds of them.
class QuietLog {
 public:
  QuietLog() : before_(log_level()) { set_log_level(LogLevel::kError); }
  ~QuietLog() { set_log_level(before_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  LogLevel before_;
};

// The on-disk format is unchanged since v2 shipped: these FNV-1a digests of
// whole entry files must never move, or existing caches, manifest results
// stores and fleet stores stop loading.
TEST(ResultCache, EntryBytesAreUnchanged) {
  TempDir dir("entry_bytes");
  ResultCache cache(dir.str());
  const uint64_t key = 0x5eedc0ffee123456ULL;
  const struct {
    bool appended_blocks;
    uint64_t digest;
  } cases[] = {{false, 0x411de3eb6a72d2b0ULL}, {true, 0xd52cad29200a0b0bULL}};
  for (const auto& c : cases) {
    const ExperimentResult result = hand_built_result(c.appended_blocks);
    ASSERT_TRUE(cache.store(key, result));
    EXPECT_EQ(fnv1a64(read_bytes(cache.entry_path(key))), c.digest)
        << "appended_blocks=" << c.appended_blocks;
    const auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(serialize_result(*loaded), serialize_result(result));
  }
}

TEST(ResultCache, EveryTruncationAndByteFlipIsAMiss) {
  TempDir dir("every_byte");
  ResultCache cache(dir.str());
  const uint64_t key = 17;
  ASSERT_TRUE(cache.store(key, hand_built_result(true)));
  const std::string path = cache.entry_path(key);
  const std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 64u);

  QuietLog quiet;
  for (size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(cache.load(key).has_value()) << "truncated to " << len;
  }
  // Every byte is covered: header bytes by the magic, version, key, length
  // and exhaustion checks, payload bytes by FNV-1a (a single-byte change
  // always changes it), checksum bytes by the comparison itself.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
    write_bytes(path, flipped);
    EXPECT_FALSE(cache.load(key).has_value()) << "byte " << i << " flipped";
  }
  write_bytes(path, bytes);
  EXPECT_TRUE(cache.load(key).has_value());
}

// A length prefix near 2^64 must not wrap the reader's bounds check: the
// entry is a miss, never an exception.
TEST(ResultCache, WrappingLengthPrefixIsAMiss) {
  TempDir dir("wrapping");
  ResultCache cache(dir.str());
  const uint64_t key = 23;
  const ExperimentResult result = hand_built_result(false);
  ASSERT_TRUE(cache.store(key, result));
  const std::string path = cache.entry_path(key);
  const std::string bytes = read_bytes(path);
  const std::string payload = serialize_result(result);
  // Entry layout: magic (8-byte prefix + 8 bytes), version, key, then the
  // payload's length prefix.
  const size_t payload_prefix_at = 32;
  ASSERT_EQ(bytes.substr(payload_prefix_at + 8, payload.size()), payload);
  // The first group's name is the first "newreno" in the payload.
  const size_t name_prefix_at = payload.find("newreno") - 8;

  QuietLog quiet;
  for (uint64_t back = 1; back <= 8; ++back) {
    const uint64_t n = 0 - back;  // 2^64 - back
    std::string prefix;
    put_u64(prefix, n);

    std::string entry = bytes;
    entry.replace(0, 8, prefix);
    write_bytes(path, entry);
    EXPECT_NO_THROW(EXPECT_FALSE(cache.load(key).has_value())) << "magic, 2^64-" << back;

    entry = bytes;
    entry.replace(payload_prefix_at, 8, prefix);
    write_bytes(path, entry);
    EXPECT_NO_THROW(EXPECT_FALSE(cache.load(key).has_value())) << "payload, 2^64-" << back;

    std::string bad_payload = payload;
    bad_payload.replace(name_prefix_at, 8, prefix);
    EXPECT_NO_THROW(EXPECT_FALSE(deserialize_result(bad_payload).has_value()))
        << "group name, 2^64-" << back;
    // The same payload behind a valid header and checksum reaches the
    // decoder through load().
    entry = bytes.substr(0, payload_prefix_at + 8) + bad_payload;
    put_u64(entry, fnv1a64(bad_payload));
    write_bytes(path, entry);
    EXPECT_NO_THROW(EXPECT_FALSE(cache.load(key).has_value()))
        << "group name via load, 2^64-" << back;
  }
}

// ---------------------------------------------------------------------------
// Executor.
// ---------------------------------------------------------------------------

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.name = "sweep_test";
  sweep.add_cell("newreno/a", small_spec("newreno", 2, 7));
  sweep.add_cell("newreno/b", small_spec("newreno", 3, 8));
  sweep.add_cell("cubic/a", small_spec("cubic", 2, 9));
  sweep.add_cell("cubic/b", small_spec("cubic", 3, 10));
  sweep.add_cell("bbr/a", small_spec("bbr", 2, 11));
  sweep.add_cell("bbr/b", small_spec("bbr", 3, 12));
  return sweep;
}

SweepOptions quiet_options() {
  SweepOptions opts;
  opts.progress = false;
  return opts;
}

TEST(SweepExecutor, ResultsIdenticalAtAnyJobsLevel) {
  const SweepSpec sweep = small_sweep();

  SweepOptions serial = quiet_options();
  serial.jobs = 1;
  SweepExecutor ex1(serial);
  const auto serial_outcomes = ex1.run(sweep);

  SweepOptions wide = quiet_options();
  wide.jobs = 8;
  SweepExecutor ex8(wide);
  const auto wide_outcomes = ex8.run(sweep);

  ASSERT_EQ(serial_outcomes.size(), sweep.cells.size());
  ASSERT_EQ(wide_outcomes.size(), sweep.cells.size());
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    EXPECT_EQ(serial_outcomes[i].name, sweep.cells[i].name);
    EXPECT_EQ(wide_outcomes[i].name, sweep.cells[i].name);
    EXPECT_EQ(serial_outcomes[i].cache_key, wide_outcomes[i].cache_key);
    expect_results_equal(serial_outcomes[i].result, wide_outcomes[i].result);
  }
  EXPECT_EQ(ex1.summary().jobs, 1);
  EXPECT_EQ(ex1.summary().total_cells, static_cast<int>(sweep.cells.size()));
  EXPECT_EQ(ex1.summary().sim_events, ex8.summary().sim_events);
}

TEST(SweepExecutor, SecondRunFullyCacheServed) {
  TempDir dir("warm");
  const SweepSpec sweep = small_sweep();

  SweepOptions opts = quiet_options();
  opts.jobs = 4;
  opts.cache_dir = dir.str();

  SweepExecutor cold(opts);
  const auto cold_outcomes = cold.run(sweep);
  EXPECT_EQ(cold.summary().from_cache, 0);

  SweepExecutor warm(opts);
  const auto warm_outcomes = warm.run(sweep);
  EXPECT_EQ(warm.summary().from_cache, static_cast<int>(sweep.cells.size()));
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    EXPECT_TRUE(warm_outcomes[i].from_cache);
    expect_results_equal(cold_outcomes[i].result, warm_outcomes[i].result);
  }
}

TEST(SweepExecutor, NoCacheFlagBypassesTheCache) {
  TempDir dir("nocache");
  const SweepSpec sweep = small_sweep();

  SweepOptions opts = quiet_options();
  opts.cache_dir = dir.str();
  SweepExecutor cold(opts);
  (void)cold.run(sweep);

  opts.use_cache = false;
  SweepExecutor bypass(opts);
  const auto outcomes = bypass.run(sweep);
  EXPECT_EQ(bypass.summary().from_cache, 0);
  for (const auto& out : outcomes) EXPECT_FALSE(out.from_cache);
}

TEST(SweepExecutor, CorruptEntryIsRecomputed) {
  TempDir dir("recompute");
  const SweepSpec sweep = small_sweep();

  SweepOptions opts = quiet_options();
  opts.cache_dir = dir.str();
  SweepExecutor cold(opts);
  const auto cold_outcomes = cold.run(sweep);

  // Vandalize one entry; the warm run must recompute exactly that cell.
  ResultCache cache(dir.str());
  {
    std::ofstream out(cache.entry_path(cold_outcomes[2].cache_key),
                      std::ios::binary | std::ios::trunc);
    out << "corrupt";
  }
  SweepExecutor warm(opts);
  const auto warm_outcomes = warm.run(sweep);
  EXPECT_EQ(warm.summary().from_cache, static_cast<int>(sweep.cells.size()) - 1);
  EXPECT_FALSE(warm_outcomes[2].from_cache);
  expect_results_equal(cold_outcomes[2].result, warm_outcomes[2].result);
  // And the recomputed entry is re-stored intact.
  EXPECT_TRUE(cache.load(cold_outcomes[2].cache_key).has_value());
}

TEST(SweepExecutor, TracedCellsBypassTheCache) {
  TempDir dir("traced");
  SweepSpec sweep;
  ExperimentSpec spec = small_spec();
  spec.trace_interval = TimeDelta::seconds(1);
  sweep.add_cell("traced", spec);

  SweepOptions opts = quiet_options();
  opts.cache_dir = dir.str();
  SweepExecutor first(opts);
  const auto a = first.run(sweep);
  EXPECT_FALSE(a[0].result.trace.empty());

  SweepExecutor second(opts);
  const auto b = second.run(sweep);
  EXPECT_FALSE(b[0].from_cache);
  EXPECT_FALSE(b[0].result.trace.empty());
}

TEST(SweepExecutor, InvalidSpecThrowsUnderFailFast) {
  SweepSpec sweep;
  sweep.add_cell("bad", small_spec("no-such-cca", 1, 1));
  sweep.add_cell("good", small_spec("newreno", 1, 2));
  SweepOptions opts = quiet_options();
  opts.fail_fast = true;
  SweepExecutor executor(opts);
  EXPECT_THROW((void)executor.run(sweep), std::exception);
}

TEST(SweepExecutor, InvalidSpecIsAnExplicitHoleByDefault) {
  SweepSpec sweep;
  sweep.add_cell("bad", small_spec("no-such-cca", 1, 1));
  sweep.add_cell("good", small_spec("newreno", 1, 2));
  SweepExecutor executor(quiet_options());
  const auto outcomes = executor.run(sweep);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, CellStatus::kFailed);
  ASSERT_TRUE(outcomes[0].failure.has_value());
  EXPECT_EQ(outcomes[0].failure->cls, FailureClass::kException);
  EXPECT_EQ(outcomes[1].status, CellStatus::kOk);
  EXPECT_EQ(executor.summary().failed, 1);
  ASSERT_EQ(executor.failures().size(), 1u);
  EXPECT_EQ(executor.failures()[0].cell, "bad");
}

TEST(SweepExecutor, SaltChangeInvalidatesCache) {
  TempDir dir("salt");
  const SweepSpec sweep = small_sweep();

  SweepOptions opts = quiet_options();
  opts.cache_dir = dir.str();
  SweepExecutor cold(opts);
  (void)cold.run(sweep);

  opts.cache_salt = "ccas-sim-v999";
  SweepExecutor other_salt(opts);
  (void)other_salt.run(sweep);
  EXPECT_EQ(other_salt.summary().from_cache, 0);
}

}  // namespace
}  // namespace ccas::sweep
