// The paper's dumbbell testbed (Figure 1): N sender hosts and N receiver
// hosts connected through a software switch whose output port toward the
// receivers is the bottleneck (drop-tail queue + serializing link). Base
// RTT is applied netem-style, split evenly between the post-bottleneck
// data path and the ACK return path.
//
//   sender ──(optional 25 Gbps host NIC)──► switch ──► [queue|link] ──►
//     netem(fwd rtt/2) ──► receiver demux ──► TcpReceiver
//   TcpReceiver ──► netem(rev rtt/2) ──► sender demux ──► TcpSender
//
// Edge links are delay-free and (by default) rate-free: the testbed's 25
// Gbps edges never congest, so modelling them as wires preserves behaviour
// while keeping the event count low (see DESIGN.md). Setting
// DumbbellConfig::edge_rate to a finite rate enables per-sender-host NIC
// serialization for the fidelity ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/delay_line.h"
#include "src/net/impairment.h"
#include "src/net/link.h"
#include "src/net/queue.h"
#include "src/net/switch.h"
#include "src/sim/simulator.h"

namespace ccas {

struct DumbbellConfig {
  DataRate bottleneck_rate = DataRate::mbps(100);
  int64_t buffer_bytes = 3 * 1000 * 1000;
  int num_pairs = 10;
  // Finite => model per-sender-host NIC serialization (ablation only).
  DataRate edge_rate = DataRate::infinite();
  int64_t edge_buffer_bytes = 1000 * static_cast<int64_t>(kDataPacketBytes);

  // Per-packet forward-path jitter (tc-netem `jitter`, without intra-flow
  // reordering): models the end-host/NIC scheduling noise of the physical
  // testbed, which is what keeps thousands of flows from phase-locking
  // into globally synchronized loss episodes. Zero disables.
  TimeDelta jitter = TimeDelta::micros(500);
  uint64_t jitter_seed = 0x6a09e667f3bcc908ULL;

  // Exogenous wire impairments (netem-equivalent), applied between the
  // bottleneck link and the forward netem — after serialization, before
  // propagation, matching where tc-netem shapes the physical testbed. The
  // stage is only constructed when enabled() (or force_stage), so default
  // configs keep the pre-impairment wiring byte-for-byte.
  ImpairmentConfig impairments;

  // Bottleneck queue discipline (src/net/qdisc/). The default kDropTail
  // constructs the exact historical DropTailQueue, so default configs keep
  // the pre-qdisc event stream and golden digests byte-for-byte.
  QdiscConfig qdisc;
};

class DumbbellTopology {
 public:
  // Destination node ids used in Packet::dst.
  static constexpr uint32_t kToReceivers = 0;
  static constexpr uint32_t kToSenders = 1;

  DumbbellTopology(Simulator& sim, const DumbbellConfig& config);

  // Registers a flow: its base RTT and both endpoints. The flow is assigned
  // to a sender/receiver pair round-robin, as in the testbed.
  void register_flow(uint32_t flow_id, TimeDelta base_rtt, PacketSink* sender_endpoint,
                     PacketSink* receiver_endpoint);

  // Tears down a flow's demux routes after its endpoints are destroyed
  // (churn slot recycling). Flow ids are never reused, so any packet still
  // carrying this id after teardown is a bug surfaced as a counted drop.
  void unregister_flow(uint32_t flow_id);

  // Capacity hint (no observable effect): sizes every per-flow table —
  // netem lanes, demux sinks, queue accounting — and the in-flight slot
  // pools for `flows` flows, so a run's steady state never grows them.
  void reserve_flows(uint32_t flows);

  // Where a sender's data packets enter the network. With rate-free edges
  // this is the switch itself; with finite edges it is the flow's host NIC.
  [[nodiscard]] PacketSink& data_entry(uint32_t flow_id);
  // Where a receiver's ACKs enter the (uncongested) return path.
  [[nodiscard]] PacketSink& ack_entry();

  [[nodiscard]] QueueDisc& bottleneck_queue() { return *queue_; }
  [[nodiscard]] const QueueDisc& bottleneck_queue() const { return *queue_; }
  [[nodiscard]] Link& bottleneck_link() { return *link_; }
  // Null when the impairment config is inert (stage not constructed).
  [[nodiscard]] ImpairedLink* impaired_link() { return impaired_.get(); }
  [[nodiscard]] const ImpairedLink* impaired_link() const { return impaired_.get(); }
  // The propagation stages, exposed so the shard fabric can install its
  // cross-domain relays (delay_line.h NetemRelay).
  [[nodiscard]] NetemDelay& forward_netem() { return *forward_netem_; }
  [[nodiscard]] NetemDelay& reverse_netem() { return *reverse_netem_; }
  // Lane storage held by both netems' packets in flight. Each such packet
  // used to hold a pending event, so RSS estimates built on
  // Simulator::pending_events() add this to stay as strict as before.
  [[nodiscard]] int64_t netem_held_bytes() const {
    return static_cast<int64_t>(forward_netem_->in_transit() +
                                reverse_netem_->in_transit()) *
           NetemDelay::held_packet_bytes();
  }
  [[nodiscard]] const DumbbellConfig& config() const { return config_; }
  [[nodiscard]] int pair_of_flow(uint32_t flow_id) const {
    return static_cast<int>(flow_id) % config_.num_pairs;
  }

 private:
  Simulator& sim_;
  DumbbellConfig config_;

  SoftwareSwitch switch_;
  std::unique_ptr<QueueDisc> queue_;
  std::unique_ptr<Link> link_;
  std::unique_ptr<ImpairedLink> impaired_;
  std::unique_ptr<NetemDelay> forward_netem_;
  std::unique_ptr<NetemDelay> reverse_netem_;
  FlowDemux receiver_demux_;
  FlowDemux sender_demux_;

  // Optional host-NIC stage (one queue+link per sender host).
  std::vector<std::unique_ptr<DropTailQueue>> host_queues_;
  std::vector<std::unique_ptr<Link>> host_links_;
};

}  // namespace ccas
