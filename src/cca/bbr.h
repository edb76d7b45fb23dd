// BBRv1 congestion control (Cardwell et al., ACM Queue 2016; modeled on
// Linux tcp_bbr.c and draft-cardwell-iccrg-bbr-congestion-control-00).
//
// BBR maintains a model of the path — max delivery rate (BtlBw) over a
// 10-round window and min RTT (RTprop) over a 10-second window — and paces
// at gain * BtlBw while capping inflight at cwnd_gain * BDP. The state
// machine: STARTUP (2/ln2 gain) -> DRAIN -> PROBE_BW (8-phase gain cycle
// 1.25, 0.75, 1x6) with periodic PROBE_RTT excursions to 4 packets.
//
// The 4-packet PROBE_RTT / minimum cwnd floor is configurable because our
// ablation (ccas_figures --figure=ablation_bbr_mincwnd) studies its role in BBR's
// intra-CCA unfairness at CoreScale (paper Finding 5).
#pragma once

#include "src/cca/cca.h"
#include "src/util/rng.h"
#include "src/util/windowed_filter.h"

namespace ccas {

struct BbrConfig {
  uint64_t initial_cwnd = 10;
  uint64_t min_cwnd = 4;  // BBR's floor and PROBE_RTT window
  double high_gain = 2.885;  // 2/ln(2)
  double drain_gain = 1.0 / 2.885;
  double cwnd_gain = 2.0;
  // PROBE_BW pacing-gain cycle (Linux: {1.25, .75, 1, 1, 1, 1, 1, 1}).
  static constexpr int kCycleLength = 8;
  double cycle_gains[kCycleLength] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  int bw_window_rounds = 10;            // max-bw filter length (round trips)
  TimeDelta min_rtt_window = TimeDelta::seconds(10);
  TimeDelta probe_rtt_duration = TimeDelta::millis(200);
  double full_bw_threshold = 1.25;  // startup "pipe filled" growth test
  int full_bw_count = 3;
  // Pacing margin (Linux paces at 99% of computed rate to avoid building
  // queues from its own pacing quantization).
  double pacing_margin = 0.99;
};

class Bbr final : public CongestionController {
 public:
  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };

  Bbr(const BbrConfig& config, Rng& rng);

  void on_ack(const AckEvent& ack) override;
  void on_congestion_event(Time now, uint64_t inflight) override;
  void on_recovery_exit(Time now, uint64_t inflight) override;
  void on_rto(Time now) override;

  [[nodiscard]] uint64_t cwnd() const override { return cwnd_; }
  [[nodiscard]] DataRate pacing_rate() const override { return pacing_rate_; }
  [[nodiscard]] std::string name() const override { return "bbr"; }
  // BBR modulates its own cwnd in recovery (packet conservation); Linux
  // bypasses PRR for full cong_control algorithms.
  [[nodiscard]] bool owns_recovery_cwnd() const override { return true; }

  // Model inspection (tests and diagnostics).
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] DataRate bottleneck_bw() const {
    return DataRate::bps(static_cast<int64_t>(max_bw_.best()));
  }
  [[nodiscard]] TimeDelta min_rtt() const { return min_rtt_; }
  [[nodiscard]] bool filled_pipe() const { return filled_pipe_; }
  [[nodiscard]] double pacing_gain() const { return pacing_gain_; }
  [[nodiscard]] uint64_t round_count() const { return round_count_; }

 private:
  void update_round(const AckEvent& ack);
  void update_bw_model(const AckEvent& ack);
  void update_min_rtt(const AckEvent& ack);
  void check_full_pipe(const AckEvent& ack);
  void update_state_machine(const AckEvent& ack);
  void advance_cycle_phase(Time now);
  void enter_probe_bw(Time now);
  void enter_probe_rtt();
  void exit_probe_rtt(Time now);
  void update_pacing_and_cwnd(const AckEvent& ack);
  [[nodiscard]] uint64_t bdp_segments(double gain) const;
  [[nodiscard]] bool model_ready() const {
    return max_bw_.best() > 0 && !min_rtt_.is_infinite();
  }

  BbrConfig config_;
  Rng& rng_;

  Mode mode_ = Mode::kStartup;
  double pacing_gain_;
  double cwnd_gain_;

  // Path model.
  WindowedMaxFilter<uint64_t, uint64_t> max_bw_;  // bps over round count
  TimeDelta min_rtt_ = TimeDelta::infinite();
  Time min_rtt_stamp_ = Time::zero();
  bool min_rtt_expired_ = false;

  // Packet-timed round trips.
  uint64_t next_round_delivered_ = 0;
  uint64_t round_count_ = 0;
  bool round_start_ = false;

  // STARTUP pipe-full detection.
  uint64_t full_bw_bps_ = 0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  // PROBE_BW cycle.
  int cycle_index_ = 0;
  Time cycle_stamp_ = Time::zero();
  uint64_t last_inflight_ = 0;
  uint64_t last_newly_lost_ = 0;

  // PROBE_RTT.
  Time probe_rtt_done_stamp_ = Time::zero();
  bool probe_rtt_round_done_ = false;
  uint64_t probe_rtt_round_end_delivered_ = 0;
  bool probe_rtt_done_stamp_valid_ = false;

  // Recovery modulation (packet conservation as in Linux).
  bool in_recovery_ = false;
  bool packet_conservation_ = false;
  uint64_t prior_cwnd_ = 0;
  uint64_t recovery_end_round_ = 0;

  uint64_t cwnd_;
  DataRate pacing_rate_ = DataRate::infinite();
};

}  // namespace ccas
