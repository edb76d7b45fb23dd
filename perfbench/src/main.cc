// perfbench_measure — runs one benchmark workload for a fixed time and
// prints one raw measurement record (a `PERFBENCH_RAW {...}` line on
// stdout) that run.py turns into metrics. Diagnostics go to stderr.
//
//   perfbench_measure --workload core-mix --seed 7 --seconds 25 --trace 0
//                    [--size full|tiny] [--work-dir DIR] [--expect-digest HEX]
//
// A run repeats the workload's operation (one cell, or one cold+warm pass
// of the sweep grid) until the time is spent, verifying every output. With
// --trace 1 it alternates plain and traced operations (spans recorded
// around the library calls) and then replays each layer's public API with
// inputs sized from the run's own counters (replay.h).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "raw.h"
#include "replay.h"
#include "src/check/golden.h"
#include "src/harness/runner.h"
#include "src/sweep/executor.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using ccas::ExperimentResult;
using ccas::ExperimentSpec;
namespace sweep = ccas::sweep;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string work_dir = ".";
  std::optional<uint64_t> expect_digest;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench_measure: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("flag " + key + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage_error("--seed needs a non-negative integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0.0) usage_error("--seconds needs a positive number");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") usage_error("--size takes full or tiny");
      a.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--expect-digest") {
      a.expect_digest = std::strtoull(value.c_str(), &end, 16);
      if (*end != '\0') usage_error("--expect-digest needs a hex digest");
    } else {
      usage_error("unknown flag " + key);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage_error("unknown --workload '" + a.workload + "'");
  }
  return a;
}

// The library reads these overrides from the environment; any of them
// would silently change what is measured (scale, durations, job count,
// cache location, audit mode, injected faults). run.py scrubs them; a
// direct invocation with one set is refused.
void refuse_environment_overrides() {
  static const char* const kExact[] = {"CCAS_JOBS",     "CCAS_SHARDS", "CCAS_CACHE_DIR",
                                       "CCAS_NO_CACHE", "CCAS_CHECK",  "CCAS_FAIL_CELL",
                                       "CCAS_LOG"};
  for (char** e = ::environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    bool bad = name.rfind("REPRO_", 0) == 0;
    for (const char* k : kExact) bad = bad || name == k;
    if (bad) usage_error("refusing to run with " + name + " set (it changes what is measured)");
  }
}

void refuse_unoptimized_build() {
#if !defined(__OPTIMIZE__)
  usage_error("refusing to time an unoptimized build");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  usage_error("refusing to time a sanitizer build");
#endif
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(uint64_t v) { return sweep::cache_key_hex(v); }

// Returns freed heap to the OS between operations (outside every timed
// span), so the process's peak resident set reflects one operation's
// footprint rather than how allocator retention happened to accumulate
// across the sweep's worker threads.
void release_freed_memory() { malloc_trim(0); }

// A verification that did not hold.
struct Failure {
  std::string name;
  std::string detail;
};

// Exact counters of one run (or the sum over a sweep pass's cells), plus
// what the replay needs to size itself.
class Counters {
 public:
  void add(const ExperimentSpec& spec, const ExperimentResult& r) {
    const ccas::SimProfile& p = r.sim_profile;
    bump("sim.events", p.events_dispatched);
    for (size_t t = 0; t < p.events_by_tag.size(); ++t) {
      bump("sim.events_by_tag." + std::to_string(t), p.events_by_tag[t]);
    }
    bump("sim.wheel_cascades", p.wheel_cascades);
    bump("sim.overflow_pushes", p.pushes_overflow);
    bump("sim.pushes_total", p.pushes_due + p.pushes_wheel + p.pushes_overflow);
    bump("sim.timer_stale_wakeups", p.timer_stale_wakeups);
    bump("sim.timer_chase_wakeups", p.timer_chase_wakeups);
    bump("sim.parallel.domains", p.shard_domains);
    bump("sim.parallel.windows", p.shard_windows);
    bump("util.measure_heap_allocs", r.measure_heap_allocs);
    bump("util.measure_sim_events", r.measure_sim_events);
    bump("net.impair.drops", p.impair_drops);
    bump("net.impair.delays", p.impair_delays);
    bump("net.impair.dups", p.impair_dups);
    bump("net.queue.enqueued", r.queue.enqueued_packets);
    bump("net.queue.dequeued", r.queue.dequeued_packets);
    bump("net.queue.dropped", r.queue.dropped_packets);
    bump("net.queue.head_drops", r.queue.head_dropped_packets);
    bump("net.queue.marks", r.queue.marked_packets);
    bump("net.queue.sojourn_ns_sum", r.queue.sojourn_ns_sum);
    bump("net.queue.sojourn_samples", r.queue.sojourn_samples);
    bump("net.queue.max_queued_bytes", static_cast<uint64_t>(r.queue.max_queued_bytes));
    bump("harness.measured_ns", static_cast<uint64_t>(r.measured_for.ns()));
    bump("harness.flows", r.flows.size());
    uint64_t rtt_ns_sum = 0;
    uint64_t rtt_samples = 0;
    for (const ccas::FlowMeasurement& f : r.flows) {
      bump("tcp.segments_sent", f.segments_sent);
      bump("tcp.retransmits", f.retransmits);
      bump("tcp.rto_events", f.rto_events);
      bump("tcp.delivered", f.delivered);
      bump("tcp.congestion_events", f.congestion_events);
      if (f.mean_rtt.ns() > 0) {
        rtt_ns_sum += static_cast<uint64_t>(f.mean_rtt.ns());
        ++rtt_samples;
      }
    }
    bump("tcp.rtt_ns_sum", rtt_ns_sum);
    bump("tcp.rtt_samples", rtt_samples);
    double fct_weighted = 0.0;
    double busy_flow_s = 0.0;
    for (const ccas::WorkloadClassResult& c : r.workload_classes) {
      bump("workload.arrivals", c.arrivals);
      bump("workload.completed", c.completed);
      bump("workload.rejected", c.rejected);
      bump("workload.abandoned", c.abandoned);
      bump("workload.completed_segments", c.completed_segments);
      fct_weighted += c.p50_fct_s * static_cast<double>(c.completed);
      busy_flow_s += c.mean_fct_s * static_cast<double>(c.completed);
    }
    fct_p50_weighted_ += fct_weighted;
    workload_flow_seconds_ += busy_flow_s;
    sim_seconds_ += p.sim_seconds;
    for (const auto& g : spec.groups) note_cca(g.cca);
    for (const auto& c : spec.workload.classes) note_cca(c.cca);
  }

  [[nodiscard]] uint64_t get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  [[nodiscard]] ReplaySizing sizing(uint64_t seed) const {
    ReplaySizing s;
    s.seed = seed;
    const double measured_s = static_cast<double>(get("harness.measured_ns")) / 1e9;
    const double pkt_rate =
        measured_s > 0.0 ? static_cast<double>(get("net.queue.dequeued")) / measured_s : 0.0;
    const uint64_t flows = get("harness.flows");
    const uint64_t completed = get("workload.completed");
    s.rtt_s = get("tcp.rtt_samples") > 0
                  ? static_cast<double>(get("tcp.rtt_ns_sum")) /
                        static_cast<double>(get("tcp.rtt_samples")) / 1e9
                  : 0.03;
    // Concurrent flows: the fixed population, plus the workload's mean
    // concurrency (Little's law over its completions).
    const double churn_live =
        sim_seconds_ > 0.0 ? workload_flow_seconds_ / sim_seconds_ : 0.0;
    const double live = static_cast<double>(flows) + churn_live;
    s.live_flows = static_cast<uint64_t>(live);
    s.flows = static_cast<uint32_t>(std::max(1.0, live));
    s.events_per_sim_s =
        sim_seconds_ > 0.0 ? static_cast<double>(get("sim.events")) / sim_seconds_ : 1.0;
    // Pending set: packets in flight (one delivery event each) plus a
    // sender and a receiver timer per live flow.
    s.pending_events = static_cast<uint64_t>(pkt_rate * s.rtt_s + 2.0 * live);
    const uint64_t sent = get("tcp.segments_sent");
    if (flows > 0 && measured_s > 0.0) {
      s.mean_window = static_cast<double>(sent) / measured_s * s.rtt_s /
                      static_cast<double>(flows);
    } else if (completed > 0) {
      s.mean_window = static_cast<double>(get("workload.completed_segments")) /
                      static_cast<double>(completed);
    } else {
      s.mean_window = 10.0;
    }
    const uint64_t lost = get("tcp.retransmits");
    if (sent > 0) {
      s.loss_per_segment = static_cast<double>(lost) / static_cast<double>(sent);
    } else if (get("net.queue.enqueued") > 0) {
      s.loss_per_segment =
          static_cast<double>(get("net.queue.dropped") + get("net.queue.head_drops")) /
          static_cast<double>(get("net.queue.enqueued"));
    }
    if (get("net.queue.sojourn_samples") > 0) {
      const double sojourn_s = static_cast<double>(get("net.queue.sojourn_ns_sum")) /
                               static_cast<double>(get("net.queue.sojourn_samples")) / 1e9;
      s.queue_depth = static_cast<uint64_t>(sojourn_s * pkt_rate);
    } else {
      s.queue_depth = get("net.queue.max_queued_bytes") / 2 / ccas::kDataPacketBytes;
    }
    s.ccas = ccas_;
    s.gk_samples = completed;
    s.fct_median_s =
        completed > 0 ? fct_p50_weighted_ / static_cast<double>(completed) : 0.0;
    return s;
  }

  [[nodiscard]] std::string to_json() const {
    JsonObject o;
    for (const auto& [k, v] : values_) o.count(k, v);
    o.num("harness.sim_seconds", sim_seconds_);
    return o.str();
  }

 private:
  void bump(const std::string& name, uint64_t v) { values_[name] += v; }
  void note_cca(const std::string& cca) {
    if (std::find(ccas_.begin(), ccas_.end(), cca) == ccas_.end()) ccas_.push_back(cca);
  }

  std::map<std::string, uint64_t> values_;
  std::vector<std::string> ccas_;
  double sim_seconds_ = 0.0;
  double fct_p50_weighted_ = 0.0;
  double workload_flow_seconds_ = 0.0;
};

// Everything one run reports, assembled into the raw record at the end.
struct RunRecord {
  std::vector<std::string> ops;  // serialized op objects
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> warm_pass_s;
  std::vector<Failure> failures;
  Counters counters;
  std::vector<ReplayMeasurement> replays;
  double cache_entry_kb = 0.0;
  uint64_t digest = 0;  // golden digest of the first operation's output
  int busy_threads = 1;
};

void fail(RunRecord& rec, const std::string& name, const std::string& detail) {
  rec.failures.push_back(Failure{name, detail});
  std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
}

std::string private_cache_dir(const Args& a, const std::string& tag) {
  return a.work_dir + "/cache-" + a.workload + "-" + std::to_string(::getpid()) + "-" + tag;
}

// ---- single-cell workloads: core-mix, core-mix-sh3, userscale-churn -----

// Re-answers one cell from a private warm result cache through the sweep
// executor, as a user re-asking the question would. A warm pass takes
// milliseconds, so passes run in short slices after every operation and
// sample the whole run, not one moment of it.
class WarmCell {
 public:
  WarmCell(const Args& a, const ExperimentSpec& spec, const ExperimentResult& cold,
           std::string cold_bytes)
      : dir_(private_cache_dir(a, "warm")), cold_bytes_(std::move(cold_bytes)) {
    fs::remove_all(dir_);
    sweep::ResultCache cache(dir_);
    if (!cache.store(sweep::spec_cache_key(spec), cold)) {
      throw std::runtime_error("cannot prime the warm cache under " + dir_);
    }
    one_.name = "perfbench-warm";
    one_.add_cell(a.workload, spec);
    opts_.jobs = 1;
    opts_.cache_dir = dir_;
    opts_.progress = false;
  }
  ~WarmCell() { fs::remove_all(dir_); }
  WarmCell(const WarmCell&) = delete;
  WarmCell& operator=(const WarmCell&) = delete;

  // Runs passes for about `slice_s`, at least `min_passes`, appending each
  // pass's wall time to `out`. False if a pass missed or returned other bytes.
  bool run_slice(double slice_s, size_t min_passes, SpanLog& spans, std::vector<double>& out) {
    const double start = now_s();
    for (size_t n = 0; n < min_passes || now_s() - start < slice_s; ++n) {
      sweep::SweepExecutor executor(opts_);
      std::vector<sweep::CellOutcome> cells;
      const double t0 = now_s();
      {
        ScopedSpan span(spans, "sweep.warm_pass");
        cells = executor.run(one_);
      }
      out.push_back(now_s() - t0);
      if (cells.size() != 1 || cells[0].status != sweep::CellStatus::kOk ||
          !cells[0].from_cache || sweep::serialize_result(cells[0].result) != cold_bytes_) {
        return false;
      }
    }
    return true;
  }

 private:
  std::string dir_;
  std::string cold_bytes_;
  sweep::SweepSpec one_;
  sweep::SweepOptions opts_;
};

void run_cell_workload(const Args& a, const ExperimentSpec& spec, RunRecord& rec) {
  SpanLog spans(a.trace);
  SpanLog off(false);
  const double start = now_s();
  const bool sharded = spec.shards > 1;
  rec.busy_threads = sharded ? spec.shards : 1;

  // core-mix-sh3 must reproduce core-mix byte for byte: run the serial
  // twin once, outside the timed operations, as the reference.
  std::string serial_bytes;
  if (sharded) {
    ExperimentSpec serial = spec;
    serial.shards = 1;
    serial_bytes = sweep::serialize_result(ccas::run_experiment(serial));
  }

  const double warm_slice = a.size == Size::kFull ? 0.04 : 0.005;
  const double deadline = start + a.seconds;
  const size_t min_ops = a.trace ? 4 : 3;
  std::vector<double> op_walls;
  std::optional<ExperimentResult> first;
  std::string first_bytes;
  std::unique_ptr<WarmCell> warm;
  bool warm_ok = true;
  bool pinned_mismatch = false;
  for (size_t i = 0;; ++i) {
    const bool traced = a.trace && i % 2 == 1;
    SpanLog& log = traced ? spans : off;
    JsonObject op;
    op.flag("traced", traced);
    ++rec.attempted;
    bool ok = true;
    std::string error;
    auto wrong = [&](const std::string& why) {
      ok = false;
      error += (error.empty() ? "" : "; ") + why;
    };
    try {
      ScopedSpan op_span(log, "op");
      ExperimentResult r;

      const double t0 = now_s();
      {
        ScopedSpan span(log, "harness.run_experiment");
        r = ccas::run_experiment(spec);
      }
      const double wall = now_s() - t0;
      const double loop = r.sim_profile.wall_seconds;
      op_walls.push_back(wall);
      op.num("wall_s", wall)
          .num("timed_s", loop)
          .num("loop_s", loop)
          .num("sim_s", r.sim_profile.sim_seconds)
          .num("setup_s", wall - loop)
          .num("core_wall_s", r.sim_profile.shard_core_wall_seconds)
          .num("edge_wall_s", r.sim_profile.shard_edge_wall_seconds);

      // Verification, outside the timed span.
      const std::string bytes = sweep::serialize_result(r);
      if (traced || !first) {
        const double d0 = now_s();
        uint64_t digest = 0;
        {
          ScopedSpan span(log, "check.golden_digest");
          digest = ccas::check::golden_digest(spec, r);
        }
        if (traced) op.num("digest_ms", (now_s() - d0) * 1e3);
        if (!first) rec.digest = digest;
        pinned_mismatch = !first && a.expect_digest && digest != *a.expect_digest;
        if (pinned_mismatch) {
          wrong("golden digest " + hex(digest) + " != pinned " + hex(*a.expect_digest));
        }
      }
      if (!first) {
        first_bytes = bytes;
        first = std::move(r);
        rec.counters.add(spec, *first);
        warm = std::make_unique<WarmCell>(a, spec, *first, first_bytes);
      } else if (bytes != first_bytes) {
        wrong("result differs from the run's first operation (nondeterminism)");
      }
      if (sharded && bytes != serial_bytes) {
        wrong("sharded serialized result differs from the serial (core-mix) result");
      }
    } catch (const std::exception& e) {
      wrong(std::string("exception: ") + e.what());
    }
    op.flag("ok", ok).str("error", error);
    rec.ops.push_back(op.str());
    release_freed_memory();
    if (!ok) {
      ++rec.failed;
      fail(rec, "op" + std::to_string(i), error);
      // Every later operation would repeat the same wrong answer: stop.
      if (!first || pinned_mismatch) break;
    }
    if (warm && warm_ok && !warm->run_slice(warm_slice, 3, spans, rec.warm_pass_s)) {
      warm_ok = false;
      fail(rec, "warm", "a warm pass did not return the cold result from the cache");
    }
    const double est = (op_walls.empty() ? 0.0 : median_of(op_walls)) + warm_slice;
    if (i + 1 >= min_ops && now_s() + est > deadline) break;
  }
  warm.reset();
  if (!first) return;

  ++rec.attempted;  // the warm phase is one more operation
  if (!warm_ok) ++rec.failed;

  if (a.trace) {
    const double budget = a.size == Size::kFull ? 0.15 : 0.02;
    {
      ScopedSpan span(spans, "replay.layers");
      rec.replays = replay_layers(rec.counters.sizing(a.seed), budget);
    }
    rec.replays.push_back(replay_spec_hash({spec}, budget));
    const CacheReplay cache =
        replay_result_cache({&*first}, private_cache_dir(a, "replay"), budget);
    rec.replays.push_back(cache.store_ms);
    rec.replays.push_back(cache.load_ms);
    rec.cache_entry_kb = cache.entry_kb;
    const std::string path = a.work_dir + "/spans-" + a.workload + ".json";
    std::ofstream(path) << spans.to_json() << "\n";
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(), path.c_str());
  }
}

// ---- sweep-grid ---------------------------------------------------------

uint64_t grid_digest(const sweep::SweepSpec& grid, const std::vector<sweep::CellOutcome>& out) {
  std::string text;
  for (size_t i = 0; i < out.size(); ++i) {
    text += grid.cells[i].name + " " +
            hex(ccas::check::golden_digest(grid.cells[i].spec, out[i].result)) + "\n";
  }
  return sweep::fnv1a64(text);
}

void run_sweep_workload(const Args& a, RunRecord& rec) {
  SpanLog spans(a.trace);
  SpanLog off(false);
  const double start = now_s();
  const sweep::SweepSpec grid = sweep_grid_spec(a.seed, a.size);
  const size_t cells = grid.cells.size();
  rec.busy_threads = kSweepJobs;
  const double warm_budget = a.size == Size::kFull ? 0.1 : 0.02;
  const size_t min_ops = a.trace ? 4 : 3;
  std::vector<double> op_walls;
  std::vector<std::string> first_bytes;
  std::vector<sweep::CellOutcome> first_cold;
  for (size_t i = 0;; ++i) {
    const bool traced = a.trace && i % 2 == 1;
    SpanLog& log = traced ? spans : off;
    const double op_start = now_s();
    JsonObject op;
    op.flag("traced", traced);
    rec.attempted += 2 * cells;  // each cell once per pass, cold and warm
    uint64_t failed_cells = 0;
    std::string error;
    const std::string dir = private_cache_dir(a, std::to_string(i));
    fs::remove_all(dir);  // cold means cold: a fresh, empty cache per op
    try {
      ScopedSpan op_span(log, "op");
      sweep::SweepOptions opts;
      opts.jobs = kSweepJobs;
      opts.cache_dir = dir;
      opts.progress = false;
      std::vector<sweep::CellOutcome> cold;
      const double t0 = now_s();
      {
        ScopedSpan span(log, "sweep.cold_pass");
        sweep::SweepExecutor executor(opts);
        cold = executor.run(grid);
      }
      const double cold_wall = now_s() - t0;
      double sim_s = 0.0;
      double loop_s = 0.0;
      std::vector<double> cell_walls;
      std::vector<double> cell_setups;
      std::vector<std::string> bytes(cells);
      for (size_t c = 0; c < cells; ++c) {
        const sweep::CellOutcome& o = cold[c];
        if (o.status != sweep::CellStatus::kOk || o.from_cache) {
          ++failed_cells;
          error = "cold pass cell " + o.name +
                  (o.from_cache ? " was served from a cache that should be empty"
                                : " failed: " + (o.failure ? o.failure->what : ""));
          continue;
        }
        sim_s += o.result.sim_profile.sim_seconds;
        loop_s += o.result.sim_profile.wall_seconds;
        cell_setups.push_back(o.wall_sec - o.result.sim_profile.wall_seconds);
        cell_walls.push_back(o.wall_sec);
        bytes[c] = sweep::serialize_result(o.result);
        if (!first_bytes.empty() && bytes[c] != first_bytes[c]) {
          ++failed_cells;
          error = "cell " + o.name + " differs from the run's first pass (nondeterminism)";
        }
      }
      op.num("wall_s", cold_wall)
          .num("timed_s", cold_wall)
          .num("loop_s", loop_s)
          .num("sim_s", sim_s)
          // A pass's set-up is cells x the median cell's: the executor's cell
          // span also covers an fsync'd cache store, whose occasional stalls
          // belong to the disk, not to building and assembling the cell.
          .num("setup_s", median_of(cell_setups) * static_cast<double>(cells))
          .nums("cell_setup_s", cell_setups)
          .nums("cell_wall_s", cell_walls)
          .count("jobs", static_cast<uint64_t>(kSweepJobs));

      // Warm passes over the now-populated cache, each checked cell by cell
      // against the cold pass and timed. The first mismatching pass fails
      // the warm pass's cells once and ends the loop.
      std::vector<double> warm;
      uint64_t warm_hits = 0;
      bool warm_bad = false;
      const double warm_start = now_s();
      while (!warm_bad &&
             (warm.empty() || (now_s() - warm_start < warm_budget && warm.size() < 200))) {
        sweep::SweepExecutor executor(opts);
        std::vector<sweep::CellOutcome> out;
        const double w0 = now_s();
        {
          ScopedSpan span(log, "sweep.warm_pass");
          out = executor.run(grid);
        }
        warm.push_back(now_s() - w0);
        for (size_t c = 0; c < cells; ++c) {
          const bool hit = out[c].status == sweep::CellStatus::kOk && out[c].from_cache;
          if (warm.size() == 1) warm_hits += hit ? 1 : 0;
          if (!hit || sweep::serialize_result(out[c].result) != bytes[c]) {
            ++failed_cells;
            warm_bad = true;
            error = "warm pass " + std::to_string(warm.size()) + " cell " + out[c].name +
                    " does not match the cold pass";
          }
        }
      }
      rec.warm_pass_s.insert(rec.warm_pass_s.end(), warm.begin(), warm.end());
      op.count("warm_hits", warm_hits).count("warm_cells", cells).nums("warm_pass_s", warm);

      if (traced || first_cold.empty()) {
        const double d0 = now_s();
        uint64_t digest = 0;
        {
          ScopedSpan span(log, "check.golden_digest");
          digest = grid_digest(grid, cold);
        }
        if (traced) op.num("digest_ms", (now_s() - d0) * 1e3);
        if (first_cold.empty()) rec.digest = digest;
        if (first_cold.empty() && a.expect_digest && digest != *a.expect_digest) {
          failed_cells = 2 * cells;
          error = "grid digest " + hex(digest) + " != pinned " + hex(*a.expect_digest);
        }
      }
      if (first_cold.empty() && failed_cells == 0) {
        first_bytes = std::move(bytes);
        for (size_t c = 0; c < cells; ++c) rec.counters.add(grid.cells[c].spec, cold[c].result);
        first_cold = std::move(cold);
      }
    } catch (const std::exception& e) {
      failed_cells = 2 * cells;
      error = std::string("exception: ") + e.what();
    }
    fs::remove_all(dir);
    failed_cells = std::min<uint64_t>(failed_cells, 2 * cells);
    rec.failed += failed_cells;
    op.flag("ok", failed_cells == 0).str("error", error).count("failed_cells", failed_cells);
    rec.ops.push_back(op.str());
    release_freed_memory();
    if (failed_cells > 0) {
      fail(rec, "op" + std::to_string(i), error);
      if (first_cold.empty()) break;
    }
    op_walls.push_back(now_s() - op_start);
    if (i + 1 >= min_ops && now_s() + median_of(op_walls) > start + a.seconds) break;
  }
  if (first_cold.empty()) return;

  if (a.trace) {
    const double budget = a.size == Size::kFull ? 0.15 : 0.02;
    {
      ScopedSpan span(spans, "replay.layers");
      rec.replays = replay_layers(rec.counters.sizing(a.seed), budget);
    }
    std::vector<ExperimentSpec> specs;
    std::vector<const ExperimentResult*> results;
    for (size_t c = 0; c < cells; ++c) {
      specs.push_back(grid.cells[c].spec);
      results.push_back(&first_cold[c].result);
    }
    rec.replays.push_back(replay_spec_hash(specs, budget));
    const CacheReplay cache = replay_result_cache(results, private_cache_dir(a, "replay"), budget);
    rec.replays.push_back(cache.store_ms);
    rec.replays.push_back(cache.load_ms);
    rec.cache_entry_kb = cache.entry_kb;
    const std::string path = a.work_dir + "/spans-" + a.workload + ".json";
    std::ofstream(path) << spans.to_json() << "\n";
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(), path.c_str());
  }
}

std::string record_json(const Args& a, const RunRecord& rec) {
  std::vector<std::string> failures;
  for (const Failure& f : rec.failures) {
    failures.push_back(JsonObject().str("name", f.name).str("detail", f.detail).str());
  }
  std::vector<std::string> replays;
  for (const ReplayMeasurement& m : rec.replays) {
    replays.push_back(JsonObject()
                          .str("name", m.name)
                          .nums("values", m.values)
                          .count("ops", m.ops)
                          .str("sized_by", m.sized_by)
                          .str());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonObject o;
  o.str("workload", a.workload)
      .count("seed", a.seed)
      .str("size", a.size == Size::kFull ? "full" : "tiny")
      .flag("trace", a.trace)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .count("busy_threads_max", static_cast<uint64_t>(rec.busy_threads))
      .str("digest", hex(rec.digest))
      .count("attempted", rec.attempted)
      .count("failed", rec.failed)
      .raw("ops", json_array(rec.ops))
      .nums("warm_pass_s", rec.warm_pass_s)
      .raw("failures", json_array(failures))
      .raw("counters", rec.counters.to_json())
      .raw("replays", json_array(replays))
      .num("cache_entry_kb", rec.cache_entry_kb)
      .count("peak_rss_kb", static_cast<uint64_t>(usage.ru_maxrss));
  return o.str();
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  refuse_environment_overrides();
  refuse_unoptimized_build();
  fs::create_directories(a.work_dir);
  RunRecord rec;
  if (a.workload == "core-mix") {
    run_cell_workload(a, core_mix_spec(a.seed, a.size, 1), rec);
  } else if (a.workload == "core-mix-sh3") {
    run_cell_workload(a, core_mix_spec(a.seed, a.size, kShards), rec);
  } else if (a.workload == "userscale-churn") {
    run_cell_workload(a, userscale_churn_spec(a.seed, a.size), rec);
  } else {
    run_sweep_workload(a, rec);
  }
  std::printf("PERFBENCH_RAW %s\n", record_json(a, rec).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
    return 1;
  }
}
