// Pluggable congestion-control interface, mirroring the hooks Linux gives
// tcp_congestion_ops plus the rate-sample machinery BBR needs.
//
// The TcpSender owns loss detection, recovery bookkeeping and (re)transmit
// scheduling; the CongestionController only decides *how much* may be in
// flight (cwnd) and *how fast* it may leave (pacing rate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/util/units.h"

namespace ccas {

class Rng;

// Delivery-rate sample in the style of Linux's struct rate_sample /
// draft-cheng-iccrg-delivery-rate-estimation. Attached to every ACK.
struct RateSample {
  DataRate delivery_rate = DataRate::zero();  // zero => no valid sample
  // Cumulative segments delivered at the send time of the sampled packet;
  // BBR uses this for packet-timed round trips.
  uint64_t prior_delivered = 0;
  TimeDelta interval = TimeDelta::zero();
  bool is_app_limited = false;
  [[nodiscard]] bool valid() const { return !delivery_rate.is_zero(); }
};

struct AckEvent {
  Time now;
  uint64_t newly_acked = 0;   // segments newly cum-acked or SACKed
  uint64_t newly_lost = 0;    // segments newly marked lost
  uint64_t inflight = 0;      // pipe after processing this ACK
  uint64_t delivered_total = 0;  // sender's cumulative delivered counter
  TimeDelta rtt_sample = TimeDelta::zero();  // zero => no sample (Karn)
  TimeDelta min_rtt = TimeDelta::infinite();
  RateSample rate;
  bool in_recovery = false;
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  // Called for every ACK after loss detection and scoreboard update.
  virtual void on_ack(const AckEvent& ack) = 0;

  // Entering fast recovery: one multiplicative-decrease opportunity.
  virtual void on_congestion_event(Time now, uint64_t inflight) = 0;
  // Leaving fast recovery (all losses from the event repaired).
  virtual void on_recovery_exit(Time now, uint64_t inflight) = 0;
  // Retransmission timeout fired.
  virtual void on_rto(Time now) = 0;
  // A data segment (new or retransmit) left the sender.
  virtual void on_packet_sent(Time now, uint64_t seq, uint64_t inflight) {
    (void)now; (void)seq; (void)inflight;
  }

  // Current congestion window in segments (>= 1).
  [[nodiscard]] virtual uint64_t cwnd() const = 0;
  // Pacing rate; infinite() means "not paced" (ack-clocked).
  [[nodiscard]] virtual DataRate pacing_rate() const { return DataRate::infinite(); }
  [[nodiscard]] virtual std::string name() const = 0;

  // Diagnostic: slow-start threshold if meaningful, else 0.
  [[nodiscard]] virtual uint64_t ssthresh() const { return 0; }

  // True when the controller manages its own window during fast recovery
  // (Linux's full cong_control interface, e.g. BBR): the sender then uses
  // plain pipe < cwnd gating instead of PRR, which only applies to
  // ack-clocked loss-based CCAs.
  [[nodiscard]] virtual bool owns_recovery_cwnd() const { return false; }
};

// One row of the fixed CCA table: a controller's name, the footprint of
// its concrete type, and a constructor that builds it into caller-provided
// storage of that size and alignment. The harness FlowTable lays every
// flow's controller inside the flow's own slab this way (DESIGN.md §12);
// make_cca builds the same row on the heap.
struct CcaRow {
  std::string name;
  size_t size = 0;
  size_t align = 0;
  CongestionController* (*construct)(void* mem, Rng& rng) = nullptr;
};

// The minimum cwnds of BBR's min-cwnd ablation (ccas_figures
// --figure=ablation_bbr_mincwnd); each has a row named bbr_mincwnd_cca().
inline constexpr uint64_t kBbrMinCwnds[] = {2, 4, 8};
[[nodiscard]] std::string bbr_mincwnd_cca(uint64_t min_cwnd);

// Every CCA, sorted by name: "bbr", one BBR per kBbrMinCwnds entry
// ("bbr-mincwnd-2", ...), "cubic" and "newreno". The table is built once
// and never changes; a new CCA is a new row in cca.cc.
[[nodiscard]] std::span<const CcaRow> cca_table();

// The row named `name`, or std::invalid_argument listing the known names.
[[nodiscard]] const CcaRow& cca_row(std::string_view name);

// Builds `name`'s row on the heap, or throws as cca_row does.
[[nodiscard]] std::unique_ptr<CongestionController> make_cca(const std::string& name,
                                                             Rng& rng);

}  // namespace ccas
