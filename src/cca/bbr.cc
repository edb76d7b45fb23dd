#include "src/cca/bbr.h"

#include <algorithm>

#include "src/net/packet.h"

namespace ccas {

Bbr::Bbr(const BbrConfig& config, Rng& rng)
    : config_(config),
      rng_(rng),
      pacing_gain_(config.high_gain),
      cwnd_gain_(config.high_gain),
      max_bw_(static_cast<uint64_t>(config.bw_window_rounds)),
      cwnd_(config.initial_cwnd) {}

uint64_t Bbr::bdp_segments(double gain) const {
  if (!model_ready()) return config_.initial_cwnd;
  const double bdp_bytes = static_cast<double>(max_bw_.best()) / 8.0 * min_rtt_.sec();
  const double segments = gain * bdp_bytes / static_cast<double>(kMssBytes);
  return std::max<uint64_t>(static_cast<uint64_t>(segments + 0.999), config_.min_cwnd);
}

void Bbr::update_round(const AckEvent& ack) {
  round_start_ = false;
  if (!ack.rate.valid()) return;
  if (ack.rate.prior_delivered >= next_round_delivered_) {
    next_round_delivered_ = ack.delivered_total;
    ++round_count_;
    round_start_ = true;
    if (in_recovery_ && round_count_ > recovery_end_round_) {
      // One round of packet conservation after entering recovery.
      packet_conservation_ = false;
    }
  }
}

void Bbr::update_bw_model(const AckEvent& ack) {
  if (!ack.rate.valid()) return;
  const auto bw = static_cast<uint64_t>(ack.rate.delivery_rate.bits_per_sec());
  // App-limited samples only raise the filter (we have no app-limited
  // phases with infinite sources, but keep the guard for completeness).
  if (!ack.rate.is_app_limited || bw >= max_bw_.best()) {
    max_bw_.update(bw, round_count_);
  }
}

void Bbr::update_min_rtt(const AckEvent& ack) {
  // The expiry decision must be latched *before* adopting a fresh sample:
  // Linux computes filter_expired once and uses it both to refresh the
  // estimate and to trigger PROBE_RTT in the same ACK.
  min_rtt_expired_ =
      !min_rtt_.is_infinite() && ack.now > min_rtt_stamp_ + config_.min_rtt_window;
  if (ack.rtt_sample <= TimeDelta::zero()) return;
  if (ack.rtt_sample < min_rtt_ || min_rtt_expired_) {
    min_rtt_ = ack.rtt_sample;
    min_rtt_stamp_ = ack.now;
  }
}

void Bbr::check_full_pipe(const AckEvent& /*ack*/) {
  if (filled_pipe_ || !round_start_) return;
  const uint64_t bw = max_bw_.best();
  const auto threshold =
      static_cast<uint64_t>(static_cast<double>(full_bw_bps_) * config_.full_bw_threshold);
  if (bw >= threshold || full_bw_bps_ == 0) {
    full_bw_bps_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= config_.full_bw_count) filled_pipe_ = true;
}

void Bbr::enter_probe_bw(Time now) {
  mode_ = Mode::kProbeBw;
  cwnd_gain_ = config_.cwnd_gain;
  // Linux picks a random initial phase, excluding the 0.75 drain phase.
  const auto r = static_cast<int>(rng_.next_below(BbrConfig::kCycleLength - 1));
  cycle_index_ = (r >= 1) ? r + 1 : 0;
  cycle_stamp_ = now;
  pacing_gain_ = config_.cycle_gains[cycle_index_];
}

void Bbr::advance_cycle_phase(Time now) {
  cycle_index_ = (cycle_index_ + 1) % BbrConfig::kCycleLength;
  cycle_stamp_ = now;
  pacing_gain_ = config_.cycle_gains[cycle_index_];
}

void Bbr::enter_probe_rtt() {
  mode_ = Mode::kProbeRtt;
  pacing_gain_ = 1.0;
  cwnd_gain_ = 1.0;
  probe_rtt_done_stamp_valid_ = false;
}

void Bbr::exit_probe_rtt(Time now) {
  min_rtt_stamp_ = now;
  // Linux's bbr_restore_cwnd: the window saved before the excursion comes
  // back instantly, so a 200 ms probe does not cost a slow rebuild.
  cwnd_ = std::max(cwnd_, prior_cwnd_);
  if (filled_pipe_) {
    enter_probe_bw(now);
  } else {
    mode_ = Mode::kStartup;
    pacing_gain_ = config_.high_gain;
    cwnd_gain_ = config_.high_gain;
  }
}

void Bbr::update_state_machine(const AckEvent& ack) {
  const Time now = ack.now;

  switch (mode_) {
    case Mode::kStartup:
      if (filled_pipe_) {
        mode_ = Mode::kDrain;
        pacing_gain_ = config_.drain_gain;
        cwnd_gain_ = config_.high_gain;
      }
      break;
    case Mode::kDrain:
      if (ack.inflight <= bdp_segments(1.0)) enter_probe_bw(now);
      break;
    case Mode::kProbeBw: {
      const bool is_full_length = (now - cycle_stamp_) > min_rtt_;
      const double gain = pacing_gain_;
      bool advance = false;
      if (gain > 1.0) {
        // Stay in the probing phase until we actually created extra
        // inflight (or losses say the pipe is full).
        advance = is_full_length &&
                  (ack.newly_lost > 0 || ack.inflight >= bdp_segments(gain));
      } else if (gain < 1.0) {
        // Leave the draining phase early once inflight is back to 1 BDP.
        advance = is_full_length || ack.inflight <= bdp_segments(1.0);
      } else {
        advance = is_full_length;
      }
      if (advance) advance_cycle_phase(now);
      break;
    }
    case Mode::kProbeRtt:
      break;  // handled below
  }

  // PROBE_RTT entry: the min-RTT estimate had not been refreshed for a
  // whole window when this ACK arrived (latched in update_min_rtt).
  if (mode_ != Mode::kProbeRtt && min_rtt_expired_) {
    // Linux bbr_save_cwnd: remember the pre-excursion window (keep the
    // recovery-saved one if an episode is in progress).
    prior_cwnd_ = in_recovery_ ? std::max(prior_cwnd_, cwnd_) : cwnd_;
    enter_probe_rtt();
  }
  if (mode_ == Mode::kProbeRtt) {
    if (!probe_rtt_done_stamp_valid_ && ack.inflight <= config_.min_cwnd) {
      // Inflight has drained to the floor: hold for 200 ms + one round.
      probe_rtt_done_stamp_ = ack.now + config_.probe_rtt_duration;
      probe_rtt_done_stamp_valid_ = true;
      probe_rtt_round_done_ = false;
      probe_rtt_round_end_delivered_ = ack.delivered_total;
    } else if (probe_rtt_done_stamp_valid_) {
      if (round_start_ && ack.rate.prior_delivered >= probe_rtt_round_end_delivered_) {
        probe_rtt_round_done_ = true;
      }
      if (probe_rtt_round_done_ && ack.now >= probe_rtt_done_stamp_) {
        exit_probe_rtt(ack.now);
      }
    }
  }
}

void Bbr::update_pacing_and_cwnd(const AckEvent& ack) {
  // Pacing rate: gain * BtlBw (with a small margin, as Linux does). Before
  // the model has data, derive a rate from the initial window and the
  // first RTT sample; if there is no RTT yet, stay unpaced (IW burst).
  if (model_ready()) {
    const double bw_bps = static_cast<double>(max_bw_.best());
    pacing_rate_ =
        DataRate::bps_f(pacing_gain_ * bw_bps * config_.pacing_margin);
  } else if (!min_rtt_.is_infinite() || ack.rtt_sample > TimeDelta::zero()) {
    const TimeDelta rtt =
        min_rtt_.is_infinite() ? ack.rtt_sample : min_rtt_;
    const double bw_bps = static_cast<double>(cwnd_) *
                          static_cast<double>(kMssBytes) * 8.0 /
                          std::max(rtt.sec(), 1e-6);
    pacing_rate_ = DataRate::bps_f(config_.high_gain * bw_bps);
  }

  // Congestion window.
  if (mode_ == Mode::kProbeRtt) {
    cwnd_ = std::min(cwnd_, config_.min_cwnd);
    return;
  }
  const uint64_t target = bdp_segments(cwnd_gain_);
  if (in_recovery_ && packet_conservation_) {
    // One round of packet conservation after loss (Linux modulation).
    cwnd_ = std::max(cwnd_, ack.inflight + ack.newly_acked);
    cwnd_ = std::min(cwnd_, target + ack.newly_acked);
  } else if (filled_pipe_) {
    cwnd_ = std::min(cwnd_ + ack.newly_acked, target);
  } else if (cwnd_ < target || ack.delivered_total < config_.initial_cwnd) {
    // Pipe not yet filled: grow unconditionally toward the target.
    cwnd_ += ack.newly_acked;
  }
  cwnd_ = std::max(cwnd_, config_.min_cwnd);
}

void Bbr::on_ack(const AckEvent& ack) {
  last_inflight_ = ack.inflight;
  last_newly_lost_ = ack.newly_lost;
  update_round(ack);
  update_bw_model(ack);
  update_min_rtt(ack);
  check_full_pipe(ack);
  update_state_machine(ack);
  update_pacing_and_cwnd(ack);
}

void Bbr::on_congestion_event(Time /*now*/, uint64_t inflight) {
  // BBRv1 does not reduce its rate model on loss; it only briefly obeys
  // packet conservation, like Linux's CA_Recovery modulation.
  if (!in_recovery_) prior_cwnd_ = cwnd_;
  in_recovery_ = true;
  packet_conservation_ = true;
  recovery_end_round_ = round_count_ + 1;
  cwnd_ = std::max(inflight + 1, config_.min_cwnd);
}

void Bbr::on_recovery_exit(Time /*now*/, uint64_t /*inflight*/) {
  in_recovery_ = false;
  packet_conservation_ = false;
  cwnd_ = std::max(cwnd_, prior_cwnd_);
}

void Bbr::on_rto(Time /*now*/) {
  prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
  cwnd_ = config_.min_cwnd;
  in_recovery_ = true;
  packet_conservation_ = true;
  recovery_end_round_ = round_count_ + 1;
}

}  // namespace ccas
