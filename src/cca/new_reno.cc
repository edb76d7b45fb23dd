#include "src/cca/new_reno.h"

#include <algorithm>
#include <limits>

namespace ccas {

NewReno::NewReno(const NewRenoConfig& config)
    : config_(config),
      cwnd_(config.initial_cwnd),
      ssthresh_(std::numeric_limits<uint64_t>::max()) {}

void NewReno::on_ack(const AckEvent& ack) {
  if (ack.in_recovery || ack.newly_acked == 0) return;
  if (in_slow_start()) {
    // RFC 5681 with appropriate byte counting: grow by the amount newly
    // acknowledged, capped at ssthresh.
    cwnd_ = std::min(cwnd_ + ack.newly_acked, std::max(ssthresh_, cwnd_));
    return;
  }
  // Congestion avoidance: +1 segment per cwnd's worth of acknowledged data.
  ack_credit_ += ack.newly_acked;
  while (ack_credit_ >= cwnd_) {
    ack_credit_ -= cwnd_;
    ++cwnd_;
  }
}

void NewReno::on_congestion_event(Time /*now*/, uint64_t /*inflight*/) {
  ssthresh_ = std::max<uint64_t>(
      static_cast<uint64_t>(static_cast<double>(cwnd_) * config_.beta), config_.min_cwnd);
  cwnd_ = ssthresh_;
  ack_credit_ = 0;
}

void NewReno::on_recovery_exit(Time /*now*/, uint64_t /*inflight*/) {
  // cwnd was already set to ssthresh at the congestion event; growth simply
  // resumes (RFC 6582 full-ACK handling with pipe-based sending).
}

void NewReno::on_rto(Time /*now*/) {
  ssthresh_ = std::max<uint64_t>(cwnd_ / 2, config_.min_cwnd);
  cwnd_ = 1;
  ack_credit_ = 0;
}

}  // namespace ccas
