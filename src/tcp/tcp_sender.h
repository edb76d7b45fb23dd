// TCP sender endpoint: window management, SACK-based loss detection
// (RFC 6675), NewReno-style recovery episodes, RTO with exponential
// backoff (RFC 6298), optional pacing, and the delivery-rate estimator —
// everything Linux TCP provides around a pluggable congestion controller.
//
// The flow is an infinite data source (as in the paper): new segments are
// always available, so sending is limited purely by cwnd and pacing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/cca/cca.h"
#include "src/net/packet.h"
#include "src/sim/timer.h"
#include "src/tcp/delivery_rate.h"
#include "src/tcp/rtt_estimator.h"
#include "src/tcp/sack_scoreboard.h"

namespace ccas {

struct TcpSenderConfig {
  uint64_t initial_cwnd = 10;  // IW10, as in Linux
  // Receive-window analog: caps the send window in segments so a single
  // misbehaving flow cannot exhaust simulator memory.
  uint64_t max_window = 1 << 20;
  uint64_t dup_thresh = 3;
  bool sack_enabled = true;
  // Application data to transfer, in segments; 0 = infinite source (the
  // paper's long-running flows). Finite flows complete once everything is
  // cumulatively acknowledged (used by the workload engine).
  uint64_t data_segments = 0;
  // RTO re-arm coalescing slack (Timer::set_rearm_slack): an earlier RTO
  // re-arm reuses a pending expiry at most this much later instead of
  // pushing a replacement queue entry, so the RTO fires up to `slack`
  // late. Zero (the default) keeps exact timing — golden-traced
  // configurations rely on that.
  TimeDelta rto_rearm_slack = TimeDelta::zero();
  // ECN (RFC 3168): data segments carry ECT, an echoed ECE triggers one
  // cwnd reduction per RTT (without retransmission), and the next data
  // segment carries CWR. Enabled by the runner when the bottleneck qdisc
  // has ECN marking on.
  bool ecn_enabled = false;
  RttEstimator::Config rtt;
};

struct TcpSenderStats {
  uint64_t segments_sent = 0;  // including retransmissions
  uint64_t retransmits = 0;
  uint64_t acks_received = 0;
  uint64_t dupacks = 0;
  // Congestion events = fast-recovery entries: each is one multiplicative
  // decrease, i.e. one "CWND halving" in the paper's tcpprobe terminology.
  uint64_t congestion_events = 0;
  uint64_t rto_events = 0;
  // Subset of congestion_events triggered by an echoed ECN mark rather
  // than by loss detection (no retransmission accompanies these).
  uint64_t ecn_reductions = 0;
  uint64_t delivered = 0;  // segments cum-ACKed or SACKed
  // Accumulated RTT samples, for the mean RTT over a measurement window
  // (the Mathis model wants the RTT the flow actually experienced,
  // queueing delay included).
  int64_t rtt_sample_sum_ns = 0;
  uint64_t rtt_sample_count = 0;
};

class TcpSender final : public PacketSink {
 public:
  TcpSender(Simulator& sim, uint32_t flow_id,
            std::unique_ptr<CongestionController> cca, PacketSink* data_path,
            const TcpSenderConfig& config = {});
  // Non-owning variant: `cca` lives in external storage (the harness
  // FlowTable constructs it into the flow's slab, right next to this
  // sender) and must outlive the sender.
  TcpSender(Simulator& sim, uint32_t flow_id, CongestionController* cca,
            PacketSink* data_path, const TcpSenderConfig& config = {});

  // Begins transmitting (the flow's staggered start time in experiments).
  void start();
  [[nodiscard]] bool started() const { return started_; }

  // ACKs arrive here from the return path.
  void accept(Packet&& pkt) override;

  [[nodiscard]] const TcpSenderStats& stats() const { return cold_.stats; }
  [[nodiscard]] const CongestionController& cca() const { return *cca_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] const SackScoreboard& scoreboard() const { return sb_; }
  [[nodiscard]] const DeliveryRateEstimator& rate_estimator() const {
    return rate_est_;
  }
  [[nodiscard]] const TcpSenderConfig& config() const { return cold_.config; }
  [[nodiscard]] uint64_t inflight() const { return pipe_; }
  [[nodiscard]] uint64_t snd_una() const { return sb_.snd_una(); }
  [[nodiscard]] uint64_t snd_nxt() const { return sb_.snd_nxt(); }
  [[nodiscard]] bool in_recovery() const { return state_ != State::kOpen; }

  // Finite flows (config.data_segments > 0): all data cum-ACKed.
  [[nodiscard]] bool complete() const {
    return data_segments_ > 0 && sb_.snd_una() >= data_segments_;
  }
  // Invoked once when the flow completes (before the callback returns the
  // sender is fully quiescent: timers cancelled, nothing in flight).
  void set_completion_callback(std::function<void()> cb) {
    cold_.completion_cb = std::move(cb);
  }
  // Invoked at every congestion event (fast-recovery entry) with the sim
  // time; the golden-trace harness records these per flow.
  void set_congestion_event_callback(std::function<void(Time)> cb) {
    cold_.congestion_event_cb = std::move(cb);
  }

  // --- Application-limited source (the workload engine's pacing models).
  // By default the flow is a greedy source. enable_app_gate caps new data
  // at `initial_segments` until the application releases more; while the
  // released data is fully sent the delivery-rate estimator marks samples
  // app-limited (RateSample::is_app_limited, which BBR/BBRv2 already
  // consult), as Linux's tcp_rate_check_app_limited does. Never enabled by
  // the fixed-flow experiment path, so golden behaviour is untouched.
  void enable_app_gate(uint64_t initial_segments);
  // Releases `segments` more to the sender (clamped to data_segments for
  // finite flows) and tries to send immediately.
  void app_release(uint64_t segments);
  [[nodiscard]] uint64_t app_limit() const { return app_limit_; }
  // Invoked once per drain when every released segment has been
  // cumulatively acknowledged but the flow is not complete — the
  // request-response / web-object models' "response delivered" signal.
  void set_app_drained_callback(std::function<void()> cb) {
    cold_.app_drained_cb = std::move(cb);
  }

  // Timestamp of the last pending timer queue entry (RTO or pacing) still
  // referencing this sender; Time::zero() when none. The workload reaper must
  // see zero (or a time in the past) before recycling the flow's slab —
  // see Timer::has_pending_entry().
  [[nodiscard]] Time latest_timer_entry() const {
    return std::max(rto_timer_.pending_entry_at(),
                    pacing_timer_.pending_entry_at());
  }

 private:
  enum class State : uint8_t { kOpen, kRecovery, kLoss };

  void process_ack(const Packet& ack);
  void try_send();
  [[nodiscard]] bool send_one(Time now);
  // `prr_exempt` marks the one immediate fast retransmit RFC 5681 allows
  // outside the PRR send budget (audit hook bookkeeping only).
  void transmit_segment(Time now, uint64_t seq, bool retransmit,
                        bool prr_exempt = false);
  void arm_rto();
  void on_rto_fire();
  [[nodiscard]] TimeDelta current_rto() const;
  [[nodiscard]] bool pacing_enabled() const {
    return !cca_->pacing_rate().is_infinite();
  }

  // --- Hot state. Everything the per-ACK / per-transmit path touches sits
  // at the front of the object, scalars packed first, so a flow's working
  // set begins in the leading cache lines of its FlowTable slab and the
  // cold configuration/stats/callbacks never share those lines
  // (DESIGN.md §12). ---
  Simulator& sim_;
  // Raw pointer on the hot path; ownership (if any) is cold state below.
  CongestionController* cca_;
  PacketSink* data_path_;
  uint32_t flow_id_;
  State state_ = State::kOpen;
  bool started_ = false;
  bool in_try_send_ = false;  // re-entrancy guard
  bool cwr_pending_ = false;
  bool completion_fired_ = false;
  bool app_gated_ = false;
  bool app_drained_notified_ = false;
  // Immutable mirrors of the config fields the per-ACK path reads, so
  // steady-state processing never dereferences into the cold struct.
  bool sack_enabled_;
  bool ecn_enabled_;
  uint32_t rto_backoff_shift_ = 0;
  uint64_t dup_thresh_;
  uint64_t data_segments_;
  uint64_t max_window_;
  uint64_t app_limit_ = 0;  // segments released by the app (app_gated_)
  uint64_t pipe_ = 0;            // segments presumed in flight (RFC 6675)
  uint64_t recovery_point_ = 0;  // snd_nxt at recovery entry
  uint64_t dupack_count_ = 0;
  uint64_t retx_hint_ = 0;  // scan cursor for lost-segment retransmission
  uint64_t reno_deflate_hint_ = 0;  // scan cursor for dupack pipe deflation

  // ECN response state (RFC 3168 §6.1.2): at most one cwnd reduction per
  // window of data — ECE on ACKs below ecn_cwr_point_ echoes a mark the
  // sender already reacted to. cwr_pending_ makes the next data segment
  // carry CWR so the receiver stops echoing.
  uint64_t ecn_cwr_point_ = 0;

  // Proportional Rate Reduction (RFC 6937) state, active in kRecovery:
  // transmissions are clocked against deliveries so the reduction to
  // ssthresh happens smoothly instead of as a retransmission burst.
  uint64_t prr_delivered_ = 0;
  uint64_t prr_out_ = 0;
  uint64_t prr_recover_fs_ = 1;  // pipe at recovery entry
  uint64_t prr_budget_ = 0;      // segments currently allowed out

  Time next_send_time_ = Time::zero();
  Timer rto_timer_;
  Timer pacing_timer_;
  RttEstimator rtt_;
  DeliveryRateEstimator rate_est_;
  SackScoreboard sb_;  // inline segment ring + run lists, pool-spilled

  // --- Cold state: configuration, statistics, ownership, callbacks —
  // touched at setup, on stats reads, and at completion, never per ACK. ---
  struct Cold {
    TcpSenderConfig config;
    TcpSenderStats stats;
    // Set only by the owning constructor; the hot path uses cca_.
    std::unique_ptr<CongestionController> owned_cca;
    std::function<void()> completion_cb;
    std::function<void(Time)> congestion_event_cb;
    std::function<void()> app_drained_cb;
  };
  Cold cold_;
};

}  // namespace ccas
