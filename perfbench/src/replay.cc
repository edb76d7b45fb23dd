#include "replay.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>

#include "raw.h"
#include "src/cca/cca.h"
#include "src/harness/flow_table.h"
#include "src/net/packet.h"
#include "src/net/qdisc/qdisc.h"
#include "src/net/queue.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/stats/quantile.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/tcp/sack_scoreboard.h"
#include "src/util/node_pool.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace ccas;

namespace {

// At least this many batches per replay, so the median is never one
// outlier; at most this many, so a tiny batch cannot spin forever.
constexpr size_t kMinBatches = 21;
constexpr size_t kMaxBatches = 200000;

// Times `run_batch(n)` in batches of `batch_ops` operations until the time
// budget is spent (and at least kMinBatches ran). `prepare()` runs before
// each batch, outside the timed region. Returns ns per operation, one value
// per batch.
ReplayMeasurement time_batches(const std::string& name, double budget_s,
                               uint64_t batch_ops, const std::string& sized_by,
                               const std::function<void()>& prepare,
                               const std::function<void(uint64_t)>& run_batch) {
  ReplayMeasurement m;
  m.name = name;
  m.sized_by = sized_by;
  const double start = now_s();
  while (m.values.size() < kMinBatches ||
         (now_s() - start < budget_s && m.values.size() < kMaxBatches)) {
    prepare();
    const double t0 = now_s();
    run_batch(batch_ops);
    const double t1 = now_s();
    m.values.push_back((t1 - t0) * 1e9 / static_cast<double>(batch_ops));
    m.ops += batch_ops;
  }
  return m;
}

void no_prepare() {}

class NullHandler final : public EventHandler {
 public:
  void on_event(uint32_t, uint64_t) override {}
};

class NullSink final : public PacketSink {
 public:
  void accept(Packet&& pkt) override { keep(pkt); }
};

uint64_t bounded(Rng& rng, uint64_t n) { return n == 0 ? 0 : rng.next_u64() % n; }

// ---- sim: timing wheel -------------------------------------------------

ReplayMeasurement replay_wheel(const ReplaySizing& s, double budget_s) {
  const uint64_t population = std::clamp<uint64_t>(s.pending_events, 64, 4'000'000);
  const double rate = std::max(s.events_per_sim_s, 1.0);
  // Little's law: N pending at dispatch rate r means each event waits N/r
  // on average, so pushes land uniformly within twice that horizon.
  const auto horizon_ns = static_cast<uint64_t>(
      std::clamp(2.0 * static_cast<double>(population) / rate * 1e9, 1e4, 30e9));
  EventQueue queue;
  NullHandler handler;
  Rng rng(s.seed);
  for (uint64_t i = 0; i < population; ++i) {
    queue.push(Time::nanos(static_cast<int64_t>(bounded(rng, horizon_ns))), &handler, 0, i);
  }
  const std::string sized = "pending=" + std::to_string(population) +
                            " horizon_ns=" + std::to_string(horizon_ns);
  return time_batches("sim.wheel_push_pop_ns", budget_s, 4096, sized, no_prepare,
                      [&](uint64_t n) {
                        for (uint64_t i = 0; i < n; ++i) {
                          const Event e = queue.pop();
                          queue.push(e.at + TimeDelta::nanos(static_cast<int64_t>(
                                                1 + bounded(rng, horizon_ns))),
                                     &handler, e.tag, e.arg);
                        }
                      });
}

// ---- tcp: SACK scoreboard ----------------------------------------------

// One flow's scoreboard at a fixed window: each operation is one ACK. Most
// ACKs advance snd_una by a segment; with the workload's loss rate an ACK
// instead reports a hole at snd_una with the rest of the window SACKed,
// which runs SACK application, RFC 6675 loss marking, the retransmit
// lookup and the recovery-ending cumulative ACK.
class ScoreboardReplay {
 public:
  ScoreboardReplay(uint64_t window, double loss, uint64_t seed)
      : window_(window),
        loss_threshold_(static_cast<uint64_t>(std::clamp(loss, 0.0, 0.5) * 4294967296.0)),
        rng_(seed) {
    board_.set_pool(&pool_);
    fill();
  }

  void ack() {
    auto on_seg = [this](uint64_t seq, SegmentState& st) {
      sink_ += seq + st.tx_count;
    };
    const uint64_t una = board_.snd_una();
    if ((rng_.next_u64() & 0xffffffffULL) < loss_threshold_ && window_ > 4) {
      board_.apply_sack(una + 1, board_.snd_nxt(), on_seg);
      board_.mark_lost_by_sack(3, on_seg);
      if (const auto lost = board_.find_lost_from(una)) board_.note_transmit(*lost);
      board_.advance_una(board_.snd_nxt(), on_seg);
    } else {
      board_.advance_una(una + 1, on_seg);
    }
    fill();
    keep(sink_);
  }

 private:
  void fill() {
    while (board_.window_size() < window_) {
      board_.extend().tx_count = 1;
      board_.note_transmit(board_.snd_nxt() - 1);
    }
  }

  uint64_t window_;
  uint64_t loss_threshold_;
  Rng rng_;
  NodePool pool_;  // before board_: the board's run lists allocate from it
  SackScoreboard board_;
  uint64_t sink_ = 0;
};

ReplayMeasurement replay_scoreboard(const std::string& name, uint64_t window,
                                    const ReplaySizing& s, double budget_s) {
  ScoreboardReplay board(window, s.loss_per_segment, s.seed);
  const std::string sized = "window=" + std::to_string(window) +
                            " loss_per_ack=" + std::to_string(s.loss_per_segment);
  return time_batches(name, budget_s, 2048, sized, no_prepare, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) board.ack();
  });
}

// ---- cca: on_ack --------------------------------------------------------

// A steady ACK clock at the workload's mean window and RTT: one ACK per
// (RTT / window), a valid delivery-rate sample at the flow's fair rate,
// and one congestion event (with a recovery lasting one window of ACKs)
// per 1/loss delivered segments. Each operation is one on_ack plus the
// paired on_packet_sent.
ReplayMeasurement replay_cca(const std::string& cca_name, const ReplaySizing& s,
                             double budget_s) {
  Rng rng(s.seed);
  std::unique_ptr<CongestionController> cca = make_cca(cca_name, rng);
  const double window = std::clamp(s.mean_window, 2.0, 100000.0);
  const double rtt_s = std::clamp(s.rtt_s, 1e-4, 10.0);
  const TimeDelta rtt = TimeDelta::seconds_f(rtt_s);
  const TimeDelta gap = TimeDelta::seconds_f(rtt_s / window);
  const DataRate fair = DataRate::bps_f(window * kMssBytes * 8.0 / rtt_s);
  const uint64_t loss_period = static_cast<uint64_t>(
      std::clamp(1.0 / std::max(s.loss_per_segment, 1e-6), 2.0 * window + 2.0, 1e9));
  const auto win = static_cast<uint64_t>(window);
  Time now = Time::nanos(0);
  uint64_t delivered = 0;
  uint64_t recovery_left = 0;
  AckEvent ack;
  const std::string sized = "window=" + std::to_string(win) +
                            " rtt_ms=" + std::to_string(rtt_s * 1e3) +
                            " loss_period=" + std::to_string(loss_period);
  return time_batches("cca." + cca_name + ".on_ack_ns", budget_s, 2048, sized,
                      no_prepare, [&](uint64_t n) {
                        for (uint64_t i = 0; i < n; ++i) {
                          now += gap;
                          ++delivered;
                          const uint64_t inflight = std::min<uint64_t>(cca->cwnd(), win);
                          if (delivered % loss_period == 0) {
                            cca->on_congestion_event(now, inflight);
                            recovery_left = win;
                          } else if (recovery_left > 0 && --recovery_left == 0) {
                            cca->on_recovery_exit(now, inflight);
                          }
                          ack.now = now;
                          ack.newly_acked = 1;
                          ack.inflight = inflight;
                          ack.delivered_total = delivered;
                          ack.rtt_sample = rtt;
                          ack.min_rtt = rtt;
                          ack.rate.delivery_rate = fair;
                          ack.rate.prior_delivered = delivered > win ? delivered - win : 0;
                          ack.rate.interval = rtt;
                          ack.in_recovery = recovery_left > 0;
                          cca->on_ack(ack);
                          cca->on_packet_sent(now, delivered + inflight, inflight);
                        }
                        keep(cca->cwnd());
                      });
}

// ---- net: qdisc accept + dequeue ----------------------------------------

// Steady state at the workload's bottleneck occupancy: each operation
// admits one packet (flows round-robin) and dequeues one. Simulated time
// advances by one 1500-byte transmission time per operation, in steps of
// 64 operations, so AQM sojourn clocks move as on a busy link.
ReplayMeasurement replay_qdisc(const std::string& name, QdiscKind kind, bool ecn,
                               const ReplaySizing& s, double budget_s) {
  Simulator sim;
  QdiscConfig config;
  config.kind = kind;
  config.ecn = ecn;
  config.seed = derive_qdisc_seed(s.seed);
  const uint64_t depth = std::clamp<uint64_t>(s.queue_depth, 16, 250'000);
  const uint32_t flows = std::max<uint32_t>(s.flows, 1);
  const int64_t capacity = static_cast<int64_t>(depth + 64) * 4 * kDataPacketBytes;
  std::unique_ptr<QueueDisc> qdisc = make_qdisc(sim, config, capacity);
  DropTailQueue* fifo = qdisc->as_drop_tail();
  const TimeDelta step = DataRate::gbps(10).transfer_time(kDataPacketBytes * 64);
  uint64_t seq = 0;
  auto admit = [&] {
    Packet p = Packet::make_data(static_cast<uint32_t>(seq % flows), 0, seq, false);
    if (ecn) p.ecn = kEcnEct;
    ++seq;
    qdisc->accept(std::move(p));
  };
  for (uint64_t i = 0; i < depth; ++i) admit();
  uint64_t sink = 0;
  const std::string sized = "depth=" + std::to_string(depth) +
                            " flows=" + std::to_string(flows);
  ReplayMeasurement m = time_batches(
      name, budget_s, 4096, sized, no_prepare, [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
          admit();
          if (fifo != nullptr) {
            sink += fifo->pop().seq;
          } else if (auto p = qdisc->dequeue()) {
            sink += p->seq;
          }
          if ((i & 63) == 63) sim.run_until(sim.now() + step);
        }
        keep(sink);
      });
  return m;
}

// ---- harness: FlowTable create / recycle ---------------------------------

// A live population of the workload's size; each operation recycles the
// oldest flow and creates a new one, cycling over the workload's CCAs.
ReplayMeasurement replay_flow_table(const ReplaySizing& s, double budget_s) {
  Simulator sim;
  NullSink data_path;
  NullSink ack_path;
  TcpSenderConfig sender_config;
  TcpReceiverConfig receiver_config;
  std::vector<std::string> ccas = s.ccas;
  if (ccas.empty()) ccas = {"cubic"};
  const uint64_t live = std::clamp<uint64_t>(s.live_flows, 16, 100'000);
  FlowTable table;
  std::deque<FlowTable::Slot> slots;
  uint32_t next_id = 0;
  auto create = [&] {
    const uint32_t id = next_id++;
    slots.push_back(table.create(sim, id, Rng(s.seed + id), ccas[id % ccas.size()],
                                 &data_path, &ack_path, sender_config, receiver_config));
  };
  for (uint64_t i = 0; i < live; ++i) create();
  const std::string sized = "live=" + std::to_string(live) +
                            " ccas=" + std::to_string(ccas.size());
  return time_batches("harness.flow_table.create_recycle_ns", budget_s, 1024, sized,
                      no_prepare, [&](uint64_t n) {
                        for (uint64_t i = 0; i < n; ++i) {
                          table.recycle(slots.front());
                          slots.pop_front();
                          create();
                        }
                      });
}

// ---- stats: GK sketch inserts ---------------------------------------------

// One run's worth of completions (heavy-tailed around the workload's median
// FCT) inserted into a fresh sketch; the sketch restarts, untimed, once a
// run's worth has gone in.
ReplayMeasurement replay_gk(const ReplaySizing& s, double budget_s) {
  const uint64_t n_values = std::clamp<uint64_t>(s.gk_samples, 8192, 2'000'000);
  const double median = s.fct_median_s > 0.0 ? s.fct_median_s : 0.01;
  std::vector<double> values(n_values);
  Rng rng(s.seed);
  for (double& v : values) {
    const double u = rng.next_double();
    // Pareto(alpha = 1.5) scaled so its median is the workload's.
    v = median * std::pow(1.0 - u, -1.0 / 1.5) / std::pow(2.0, 1.0 / 1.5);
  }
  constexpr uint64_t kBatch = 1024;
  auto sketch = std::make_unique<QuantileSketch>(0.001);
  uint64_t cursor = 0;
  const std::string sized = "inserts_per_sketch=" + std::to_string(n_values);
  return time_batches(
      "stats.gk_insert_ns", budget_s, kBatch, sized,
      [&] {
        if (cursor + kBatch > n_values) {
          sketch = std::make_unique<QuantileSketch>(0.001);
          cursor = 0;
        }
      },
      [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) sketch->insert(values[cursor++]);
        keep(sketch->count());
      });
}

}  // namespace

std::vector<ReplayMeasurement> replay_layers(const ReplaySizing& sizing, double budget_s) {
  std::vector<ReplayMeasurement> out;
  out.push_back(replay_wheel(sizing, budget_s));
  out.push_back(replay_scoreboard("tcp.scoreboard_ack_ns.inline",
                                  SackScoreboard::kInlineSegs / 2, sizing, budget_s));
  // Past the inline ring at the run's mean window (small windows spill at
  // the first size that does).
  const auto mean_window = static_cast<uint64_t>(sizing.mean_window + 0.5);
  out.push_back(replay_scoreboard("tcp.scoreboard_ack_ns.spilled",
                                  std::max<uint64_t>(mean_window, SackScoreboard::kInlineSegs + 1),
                                  sizing, budget_s));
  for (const char* cca : {"newreno", "cubic", "bbr"}) {
    out.push_back(replay_cca(cca, sizing, budget_s));
  }
  out.push_back(replay_qdisc("net.qdisc.drop_tail.op_ns", QdiscKind::kDropTail, false,
                             sizing, budget_s));
  out.push_back(replay_qdisc("net.qdisc.fq_codel.op_ns", QdiscKind::kFqCoDel, true,
                             sizing, budget_s));
  out.push_back(replay_flow_table(sizing, budget_s));
  out.push_back(replay_gk(sizing, budget_s));
  return out;
}

ReplayMeasurement replay_spec_hash(const std::vector<ExperimentSpec>& specs,
                                   double budget_s) {
  if (specs.empty()) throw std::invalid_argument("replay_spec_hash: no specs");
  uint64_t sink = 0;
  size_t next = 0;
  ReplayMeasurement m = time_batches(
      "sweep.spec_hash_us", budget_s, 64,
      "specs=" + std::to_string(specs.size()), no_prepare, [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
          sink ^= sweep::spec_cache_key(specs[next]);
          next = (next + 1) % specs.size();
        }
        keep(sink);
      });
  for (double& v : m.values) v /= 1e3;  // ns -> us
  return m;
}

CacheReplay replay_result_cache(const std::vector<const ExperimentResult*>& results,
                                const std::string& dir, double budget_s) {
  if (results.empty()) throw std::invalid_argument("replay_result_cache: no results");
  namespace fs = std::filesystem;
  CacheReplay out;
  out.store_ms.name = "sweep.cache_store_ms";
  out.load_ms.name = "sweep.cache_load_ms";
  const std::string sized = "results=" + std::to_string(results.size());
  out.store_ms.sized_by = sized;
  out.load_ms.sized_by = sized;
  fs::remove_all(dir);
  {
    sweep::ResultCache cache(dir);
    // Distinct keys per call, so every store writes a fresh entry.
    auto key_of = [](size_t i) { return 0x9e3779b97f4a7c15ULL * (i + 1); };
    const double start = now_s();
    size_t stored = 0;
    double bytes = 0.0;
    while (stored < kMinBatches || (now_s() - start < budget_s && stored < 4096)) {
      const ExperimentResult& r = *results[stored % results.size()];
      const double t0 = now_s();
      const bool ok = cache.store(key_of(stored), r);
      const double t1 = now_s();
      if (!ok) throw std::runtime_error("result cache store failed under " + dir);
      out.store_ms.values.push_back((t1 - t0) * 1e3);
      if (stored < results.size()) {
        bytes += static_cast<double>(fs::file_size(cache.entry_path(key_of(stored))));
      }
      ++stored;
    }
    out.store_ms.ops = stored;
    out.entry_kb = bytes / static_cast<double>(std::min(stored, results.size())) / 1024.0;
    for (size_t i = 0; i < stored; ++i) {
      const double t0 = now_s();
      const auto loaded = cache.load(key_of(i));
      const double t1 = now_s();
      if (!loaded) throw std::runtime_error("result cache load missed a stored entry");
      keep(loaded->sim_events);
      out.load_ms.values.push_back((t1 - t0) * 1e3);
    }
    out.load_ms.ops = stored;
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
