#include "src/cca/cubic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ccas {

Cubic::Cubic(const CubicConfig& config)
    : config_(config),
      cwnd_(static_cast<double>(config.initial_cwnd)),
      ssthresh_(std::numeric_limits<uint64_t>::max()) {}

void Cubic::start_epoch(Time now) {
  epoch_started_ = true;
  epoch_start_ = now;
  if (cwnd_ >= w_max_) {
    // We are already past the previous saturation point: probe from here.
    k_ = 0.0;
    origin_point_ = cwnd_;
  } else {
    // RFC 8312 (4.1): K = cbrt(W_max * (1 - beta) / C).
    k_ = std::cbrt(w_max_ * (1.0 - config_.beta) / config_.c);
    origin_point_ = w_max_;
  }
  w_est_ = cwnd_;
}

void Cubic::on_ack(const AckEvent& ack) {
  if (ack.in_recovery || ack.newly_acked == 0) return;
  const auto acked = static_cast<double>(ack.newly_acked);

  if (in_slow_start()) {
    cwnd_ = std::min(cwnd_ + acked,
                     std::max(static_cast<double>(ssthresh_), cwnd_));
    return;
  }

  if (!epoch_started_) {
    start_epoch(ack.now);
    min_rtt_at_epoch_ =
        ack.min_rtt.is_infinite() ? TimeDelta::millis(100) : ack.min_rtt;
  }
  const TimeDelta rtt =
      ack.min_rtt.is_infinite() ? min_rtt_at_epoch_ : ack.min_rtt;

  // RFC 8312 (4.1): target = W_cubic(t + RTT).
  const double t = (ack.now - epoch_start_).sec() + rtt.sec();
  const double dt = t - k_;
  const double target = origin_point_ + config_.c * dt * dt * dt;

  double delta;
  if (target > cwnd_) {
    // Grow by (target - cwnd)/cwnd per ACKed segment, capped at +0.5
    // segment per segment acked (Linux's cnt >= 2 clamp).
    delta = std::min((target - cwnd_) / cwnd_, 0.5) * acked;
  } else {
    // Maximum-probing plateau: crawl forward very slowly.
    delta = 0.01 / cwnd_ * acked;
  }
  cwnd_ += delta;

  if (config_.tcp_friendliness) {
    // RFC 8312 (4.2): W_est(t) = W_max*beta + [3(1-beta)/(1+beta)] * t/RTT.
    const double alpha =
        3.0 * (1.0 - config_.beta) / (1.0 + config_.beta);
    const double elapsed_rounds = rtt.sec() > 0.0 ? t / rtt.sec() : 0.0;
    w_est_ = w_max_ * config_.beta + alpha * elapsed_rounds;
    if (w_est_ > cwnd_) {
      // Follow the Reno estimate, but without discontinuous jumps: grow at
      // most `acked` segments per ACK toward it.
      cwnd_ = std::min(w_est_, cwnd_ + acked);
    }
  }
}

void Cubic::on_congestion_event(Time /*now*/, uint64_t /*inflight*/) {
  epoch_started_ = false;
  if (config_.fast_convergence && cwnd_ < w_max_) {
    // RFC 8312 (4.6): release bandwidth faster when the saturation point
    // keeps shrinking (new flows are joining).
    w_max_ = cwnd_ * (2.0 - config_.beta) / 2.0;
  } else {
    w_max_ = cwnd_;
  }
  cwnd_ = std::max(cwnd_ * config_.beta, static_cast<double>(config_.min_cwnd));
  ssthresh_ = static_cast<uint64_t>(cwnd_);
}

void Cubic::on_recovery_exit(Time /*now*/, uint64_t /*inflight*/) {}

void Cubic::on_rto(Time /*now*/) {
  // Linux resets all CUBIC epoch state when entering the loss state.
  epoch_started_ = false;
  w_max_ = 0.0;
  ssthresh_ = std::max<uint64_t>(
      static_cast<uint64_t>(cwnd_ * config_.beta), config_.min_cwnd);
  cwnd_ = 1.0;
}

}  // namespace ccas
