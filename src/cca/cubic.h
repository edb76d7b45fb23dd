// CUBIC congestion control per RFC 8312 (the Linux default the paper
// evaluates): cubic window growth anchored at the last W_max, fast
// convergence, and the TCP-friendly (Reno-emulation) region.
#pragma once

#include "src/cca/cca.h"

namespace ccas {

struct CubicConfig {
  uint64_t initial_cwnd = 10;
  uint64_t min_cwnd = 2;
  double c = 0.4;      // cubic scaling constant (segments/sec^3)
  double beta = 0.7;   // multiplicative decrease factor
  bool fast_convergence = true;
  bool tcp_friendliness = true;
};

class Cubic final : public CongestionController {
 public:
  explicit Cubic(const CubicConfig& config = {});

  void on_ack(const AckEvent& ack) override;
  void on_congestion_event(Time now, uint64_t inflight) override;
  void on_recovery_exit(Time now, uint64_t inflight) override;
  void on_rto(Time now) override;

  [[nodiscard]] uint64_t cwnd() const override {
    return static_cast<uint64_t>(cwnd_);
  }
  [[nodiscard]] uint64_t ssthresh() const override { return ssthresh_; }
  [[nodiscard]] std::string name() const override { return "cubic"; }
  [[nodiscard]] bool in_slow_start() const {
    return static_cast<uint64_t>(cwnd_) < ssthresh_;
  }
  // Exposed for tests: K and W_max of the current cubic epoch.
  [[nodiscard]] double k_seconds() const { return k_; }
  [[nodiscard]] double w_max() const { return w_max_; }

 private:
  void start_epoch(Time now);

  CubicConfig config_;
  double cwnd_;          // fractional window in segments
  uint64_t ssthresh_;
  double w_max_ = 0.0;   // window just before the last reduction
  bool epoch_started_ = false;
  Time epoch_start_ = Time::zero();
  double k_ = 0.0;            // seconds to return to w_max_
  double origin_point_ = 0.0;
  // Reno-emulation state for the TCP-friendly region (RFC 8312 4.2).
  double w_est_ = 0.0;
  TimeDelta min_rtt_at_epoch_ = TimeDelta::zero();
};

}  // namespace ccas
