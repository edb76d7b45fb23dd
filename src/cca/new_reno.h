// TCP NewReno congestion control (RFC 5681 + RFC 6582 semantics).
//
// The loss-recovery state machine itself lives in TcpSender; this class
// implements the AIMD window policy: slow start, congestion avoidance with
// appropriate byte counting, a multiplicative decrease of 1/2 per
// congestion event, and cwnd = 1 after an RTO.
#pragma once

#include "src/cca/cca.h"

namespace ccas {

struct NewRenoConfig {
  uint64_t initial_cwnd = 10;
  uint64_t min_cwnd = 2;
  double beta = 0.5;  // multiplicative decrease factor
};

class NewReno final : public CongestionController {
 public:
  explicit NewReno(const NewRenoConfig& config = {});

  void on_ack(const AckEvent& ack) override;
  void on_congestion_event(Time now, uint64_t inflight) override;
  void on_recovery_exit(Time now, uint64_t inflight) override;
  void on_rto(Time now) override;

  [[nodiscard]] uint64_t cwnd() const override { return cwnd_; }
  [[nodiscard]] uint64_t ssthresh() const override { return ssthresh_; }
  [[nodiscard]] std::string name() const override { return "newreno"; }
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  NewRenoConfig config_;
  uint64_t cwnd_;
  uint64_t ssthresh_;
  uint64_t ack_credit_ = 0;  // congestion-avoidance accumulator
};

}  // namespace ccas
