#include "src/sweep/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep {

namespace {

constexpr std::string_view kMagic = "CCASRES\n";
// v2: per-flow congestion-event log appended to the payload.
constexpr uint64_t kFormatVersion = 2;

void put_flow(std::string& out, const FlowMeasurement& f) {
  put_u32(out, f.flow_id);
  put_i64(out, f.window.ns());
  put_double(out, f.goodput_bps);
  put_u64(out, f.segments_sent);
  put_u64(out, f.retransmits);
  put_u64(out, f.delivered);
  put_u64(out, f.congestion_events);
  put_u64(out, f.rto_events);
  put_u64(out, f.queue_drops);
  put_double(out, f.packet_loss_rate);
  put_double(out, f.cwnd_halving_rate);
  put_i64(out, f.mean_rtt.ns());
}

bool get_flow(WireReader& r, FlowMeasurement& f) {
  int64_t window_ns = 0;
  int64_t mean_rtt_ns = 0;
  const bool ok = r.get_u32(f.flow_id) && r.get_i64(window_ns) &&
                  r.get_double(f.goodput_bps) && r.get_u64(f.segments_sent) &&
                  r.get_u64(f.retransmits) && r.get_u64(f.delivered) &&
                  r.get_u64(f.congestion_events) && r.get_u64(f.rto_events) &&
                  r.get_u64(f.queue_drops) && r.get_double(f.packet_loss_rate) &&
                  r.get_double(f.cwnd_halving_rate) && r.get_i64(mean_rtt_ns);
  if (!ok) return false;
  f.window = TimeDelta::nanos(window_ns);
  f.mean_rtt = TimeDelta::nanos(mean_rtt_ns);
  return true;
}

// The whole of a regular file in one sized read. nullopt if it cannot be
// opened or read in full: to the cache that is a miss, like corruption.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> out;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    std::string buf(static_cast<size_t>(st.st_size), '\0');
    size_t got = 0;
    while (got < buf.size()) {
      const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    if (got == buf.size()) out = std::move(buf);
  }
  ::close(fd);
  return out;
}

}  // namespace

std::string serialize_result(const ExperimentResult& result) {
  std::string out;
  out.reserve(128 + result.flows.size() * 96 + result.drop_times.size() * 8);

  put_u64(out, result.flows.size());
  for (const FlowMeasurement& f : result.flows) put_flow(out, f);

  put_u64(out, result.flow_group.size());
  for (const int g : result.flow_group) put_i64(out, g);

  put_u64(out, result.groups.size());
  for (const GroupResult& g : result.groups) {
    put_string(out, g.cca);
    put_i64(out, g.count);
    put_i64(out, g.rtt.ns());
    put_double(out, g.aggregate_goodput_bps);
    put_double(out, g.throughput_share);
    put_double(out, g.jfi);
  }

  put_u64(out, result.queue.enqueued_packets);
  put_u64(out, result.queue.enqueued_bytes);
  put_u64(out, result.queue.dequeued_packets);
  put_u64(out, result.queue.dropped_packets);
  put_u64(out, result.queue.dropped_bytes);
  put_i64(out, result.queue.max_queued_bytes);

  put_u64(out, result.drop_times.size());
  for (const Time t : result.drop_times) put_i64(out, t.ns());

  put_double(out, result.aggregate_goodput_bps);
  put_double(out, result.utilization);
  put_i64(out, result.measured_for.ns());
  put_bool(out, result.converged_early);
  put_u64(out, result.sim_events);

  put_u64(out, result.congestion_log.size());
  for (const std::vector<Time>& flow_log : result.congestion_log) {
    put_u64(out, flow_log.size());
    for (const Time t : flow_log) put_i64(out, t.ns());
  }

  // Qdisc trailer, appended only when an AQM actually produced content:
  // drop-tail results keep their historical v2 bytes (and stay readable by
  // older binaries), and an AQM result with all-zero extras loses nothing
  // by omitting it. The reader detects it by non-exhaustion.
  bool qdisc_active = result.queue.head_dropped_packets > 0 ||
                      result.queue.marked_packets > 0 ||
                      result.queue.sojourn_samples > 0;
  for (const FlowMeasurement& f : result.flows) {
    qdisc_active = qdisc_active || f.queue_marks > 0 || f.ecn_reductions > 0;
  }
  // A workload block (below) can only follow a qdisc trailer — the reader
  // distinguishes the two appended blocks by position, so force the (then
  // all-zero) qdisc trailer whenever workload results are present.
  const bool workload_active = !result.workload_classes.empty();
  if (qdisc_active || workload_active) {
    put_u64(out, result.queue.head_dropped_packets);
    put_u64(out, result.queue.head_dropped_bytes);
    put_u64(out, result.queue.marked_packets);
    put_u64(out, result.queue.sojourn_ns_sum);
    put_u64(out, result.queue.sojourn_samples);
    put_i64(out, result.queue.max_sojourn_ns);
    put_u64(out, result.flows.size());
    for (const FlowMeasurement& f : result.flows) {
      put_u64(out, f.queue_marks);
      put_u64(out, f.ecn_reductions);
    }
  }
  // Workload FCT block, appended only when the open-loop workload ran:
  // pre-workload results keep their historical bytes.
  if (workload_active) {
    put_u64(out, result.workload_classes.size());
    for (const WorkloadClassResult& c : result.workload_classes) {
      put_string(out, c.name);
      put_string(out, c.cca);
      put_u64(out, c.arrivals);
      put_u64(out, c.rejected);
      put_u64(out, c.completed);
      put_u64(out, c.abandoned);
      put_u64(out, c.completed_segments);
      put_double(out, c.mean_fct_s);
      put_double(out, c.p50_fct_s);
      put_double(out, c.p90_fct_s);
      put_double(out, c.p99_fct_s);
      put_double(out, c.p999_fct_s);
      put_double(out, c.mean_slowdown);
    }
    put_double(out, result.workload_goodput_bps);
  }
  return out;
}

std::optional<ExperimentResult> deserialize_result(std::string_view payload) {
  WireReader r(payload);
  ExperimentResult result;

  uint64_t n = 0;
  if (!r.get_count(n, 12 * 8)) return std::nullopt;
  result.flows.resize(n);
  for (FlowMeasurement& f : result.flows) {
    if (!get_flow(r, f)) return std::nullopt;
  }

  if (!r.get_count(n, 8)) return std::nullopt;
  result.flow_group.resize(n);
  for (int& g : result.flow_group) {
    int64_t v = 0;
    if (!r.get_i64(v)) return std::nullopt;
    g = static_cast<int>(v);
  }

  if (!r.get_count(n, 6 * 8)) return std::nullopt;
  result.groups.resize(n);
  for (GroupResult& g : result.groups) {
    int64_t count = 0;
    int64_t rtt_ns = 0;
    if (!r.get_string(g.cca) || !r.get_i64(count) || !r.get_i64(rtt_ns) ||
        !r.get_double(g.aggregate_goodput_bps) || !r.get_double(g.throughput_share) ||
        !r.get_double(g.jfi)) {
      return std::nullopt;
    }
    g.count = static_cast<int>(count);
    g.rtt = TimeDelta::nanos(rtt_ns);
  }

  if (!r.get_u64(result.queue.enqueued_packets) ||
      !r.get_u64(result.queue.enqueued_bytes) ||
      !r.get_u64(result.queue.dequeued_packets) ||
      !r.get_u64(result.queue.dropped_packets) ||
      !r.get_u64(result.queue.dropped_bytes) ||
      !r.get_i64(result.queue.max_queued_bytes)) {
    return std::nullopt;
  }

  if (!r.get_count(n, 8)) return std::nullopt;
  result.drop_times.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t t = 0;
    if (!r.get_i64(t)) return std::nullopt;
    result.drop_times.push_back(Time::nanos(t));
  }

  int64_t measured_ns = 0;
  if (!r.get_double(result.aggregate_goodput_bps) ||
      !r.get_double(result.utilization) || !r.get_i64(measured_ns) ||
      !r.get_bool(result.converged_early) || !r.get_u64(result.sim_events)) {
    return std::nullopt;
  }
  result.measured_for = TimeDelta::nanos(measured_ns);

  if (!r.get_count(n, 8)) return std::nullopt;
  result.congestion_log.resize(n);
  for (std::vector<Time>& flow_log : result.congestion_log) {
    uint64_t m = 0;
    if (!r.get_count(m, 8)) return std::nullopt;
    flow_log.reserve(m);
    for (uint64_t i = 0; i < m; ++i) {
      int64_t t = 0;
      if (!r.get_i64(t)) return std::nullopt;
      flow_log.push_back(Time::nanos(t));
    }
  }
  // Optional qdisc trailer (see serialize_result): absent for drop-tail
  // results, so plain v2 payloads decode exactly as before.
  if (!r.exhausted()) {
    if (!r.get_u64(result.queue.head_dropped_packets) ||
        !r.get_u64(result.queue.head_dropped_bytes) ||
        !r.get_u64(result.queue.marked_packets) ||
        !r.get_u64(result.queue.sojourn_ns_sum) ||
        !r.get_u64(result.queue.sojourn_samples) ||
        !r.get_i64(result.queue.max_sojourn_ns)) {
      return std::nullopt;
    }
    if (!r.get_count(n, 2 * 8) || n != result.flows.size()) return std::nullopt;
    for (FlowMeasurement& f : result.flows) {
      if (!r.get_u64(f.queue_marks) || !r.get_u64(f.ecn_reductions)) {
        return std::nullopt;
      }
    }
    // Optional workload FCT block, always preceded by a qdisc trailer (the
    // serializer forces one when workload results are present).
    if (!r.exhausted()) {
      if (!r.get_count(n, 5 * 8 + 6 * 8)) return std::nullopt;
      result.workload_classes.resize(n);
      for (WorkloadClassResult& c : result.workload_classes) {
        if (!r.get_string(c.name) || !r.get_string(c.cca) ||
            !r.get_u64(c.arrivals) || !r.get_u64(c.rejected) ||
            !r.get_u64(c.completed) || !r.get_u64(c.abandoned) ||
            !r.get_u64(c.completed_segments) || !r.get_double(c.mean_fct_s) ||
            !r.get_double(c.p50_fct_s) || !r.get_double(c.p90_fct_s) ||
            !r.get_double(c.p99_fct_s) || !r.get_double(c.p999_fct_s) ||
            !r.get_double(c.mean_slowdown)) {
          return std::nullopt;
        }
      }
      if (!r.get_double(result.workload_goodput_bps)) return std::nullopt;
    }
  }
  if (!r.exhausted()) return std::nullopt;  // trailing garbage
  return result;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("cannot create cache dir '" + dir_ +
                             "': " + ec.message());
  }
}

std::string ResultCache::entry_path(uint64_t key) const {
  return dir_ + "/" + cache_key_hex(key) + ".ccres";
}

std::optional<ExperimentResult> ResultCache::load(uint64_t key) const {
  const std::optional<std::string> file = read_file(entry_path(key));
  if (!file) return std::nullopt;

  WireReader header(*file);
  std::string_view magic;
  uint64_t version = 0;
  uint64_t stored_key = 0;
  std::string_view payload;
  uint64_t checksum = 0;
  if (!header.get_view(magic) || magic != kMagic ||         //
      !header.get_u64(version) || version != kFormatVersion ||
      !header.get_u64(stored_key) || stored_key != key ||   //
      !header.get_view(payload) ||                          //
      !header.get_u64(checksum) || !header.exhausted()) {
    log_warn("sweep cache: malformed entry %s ignored", entry_path(key).c_str());
    return std::nullopt;
  }
  if (fnv1a64(payload) != checksum) {
    log_warn("sweep cache: checksum mismatch in %s, recomputing",
             entry_path(key).c_str());
    return std::nullopt;
  }
  auto result = deserialize_result(payload);
  if (!result) {
    log_warn("sweep cache: undecodable payload in %s, recomputing",
             entry_path(key).c_str());
  }
  return result;
}

bool ResultCache::store(uint64_t key, const ExperimentResult& result) const {
  const std::string payload = serialize_result(result);
  std::string file;
  file.reserve(payload.size() + 64);
  put_string(file, kMagic);
  put_u64(file, kFormatVersion);
  put_u64(file, key);
  put_string(file, payload);
  put_u64(file, fnv1a64(payload));

  // The temp name is unique per process AND per store() call (pid +
  // process-wide counter): two workers — or two threads — racing the same
  // key must never share a temp file, or one writer's truncate tears the
  // other's half-written bytes just before its rename. With unique temps,
  // concurrent writers are last-writer-wins at the rename, and every
  // rename publishes a complete entry.
  static std::atomic<uint64_t> tmp_counter{0};
  const std::string tmp =
      entry_path(key) + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  for (int attempt = 0; attempt < kStoreAttempts; ++attempt) {
    if (attempt > 0) {
      // Deterministic backoff: transient conditions (ENOSPC window, a
      // flaky network FS) often clear within milliseconds.
      std::this_thread::sleep_for(std::chrono::milliseconds(2LL << attempt));
    }
    size_t write_len = file.size();
    if (fail_next_writes_.load(std::memory_order_relaxed) > 0 &&
        fail_next_writes_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      write_len /= 2;  // injected torn write
    }
    {
      // POSIX write path so the data can be fsync'd before the rename: a
      // host crash after the rename must not leave a published entry
      // whose bytes never reached the disk.
      const int fd = ::open(tmp.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
      if (fd < 0) continue;
      const ssize_t written =
          ::write(fd, file.data(), static_cast<size_t>(write_len));
      const bool ok = written == static_cast<ssize_t>(write_len) &&
                      ::fsync(fd) == 0;
      ::close(fd);
      if (!ok) {
        ::unlink(tmp.c_str());
        continue;
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, entry_path(key), ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      continue;
    }
    // Commit the rename itself: fsync the directory so the entry's name
    // survives a host crash (data was fsync'd above; without the
    // directory sync the file could vanish, which is only a cache miss —
    // but the fleet's manifest journals "ok" right after this store, and
    // a journaled-ok cell whose entry vanished costs a recompute on
    // every resume).
    sync_dir();
    // Verify after rename: read the entry back and byte-compare. A torn
    // or bit-flipped write is removed (load() would only warn and
    // recompute later — better to pay one retry now) and re-attempted.
    // A mismatch that is itself a complete, verifiable entry (a
    // concurrent writer of the same key won the rename race) counts as
    // success: entries for one key are equal bytes under the determinism
    // contract, and a divergent winner is caught by the manifest's
    // digest check, not here.
    if (const std::optional<std::string> readback = read_file(entry_path(key))) {
      if (*readback == file) return true;
      if (write_len == file.size() && load(key).has_value()) return true;
    }
    log_warn("sweep cache: verify-after-rename mismatch in %s (attempt %d), "
             "rewriting",
             entry_path(key).c_str(), attempt + 1);
    std::filesystem::remove(entry_path(key), ec);
  }
  return false;
}

void ResultCache::sync_dir() const {
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return;  // best-effort: an unsyncable dir degrades to cache-off semantics
  ::fsync(dfd);
  ::close(dfd);
}

}  // namespace ccas::sweep
