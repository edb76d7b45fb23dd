// Pure propagation-delay elements (infinite rate, no loss).
//
// DelayLine applies one fixed delay to every packet; NetemDelay is the
// tc-netem analog used by the paper to set per-flow base RTTs: it looks up
// the delay per flow id, so flows with different RTTs can share the path.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/lane_pool.h"
#include "src/util/ring_buffer.h"
#include "src/util/rng.h"

namespace ccas {

class DelayLine final : public PacketSink, public EventHandler {
 public:
  DelayLine(Simulator& sim, TimeDelta delay, PacketSink* dest);

  void accept(Packet&& pkt) override;
  void on_event(uint32_t tag, uint64_t arg) override;

  [[nodiscard]] TimeDelta delay() const { return delay_; }
  [[nodiscard]] size_t in_transit() const { return fifo_.size(); }

 private:
  Simulator& sim_;
  TimeDelta delay_;
  PacketSink* dest_;
  // The delay is uniform, so arrivals happen in insertion order and a FIFO
  // suffices — no per-packet bookkeeping.
  RingBuffer<Packet> fifo_;
};

// Holds each in-flight packet in a FIFO lane whose release times are
// non-decreasing in accept order, and keeps one pending event per
// non-empty lane (for its head) instead of one per packet. Without jitter
// there is one lane per distinct delay (release = now + delay); with
// jitter, one lane per flow (the per-flow clamp below keeps a flow's
// releases monotone). Each packet reserves its event's order key when it
// is accepted — exactly the key schedule_at would have stamped then — and
// its event is pushed under that key when it reaches the head of its
// lane. A head's dispatch pushes the next head before anything that sorts
// after the head can run, so every packet dispatches at the same (time,
// key) as a per-packet event would: dispatch order, event counts and tags
// are unchanged.
class NetemDelay final : public PacketSink, public EventHandler {
 public:
  NetemDelay(Simulator& sim, PacketSink* dest);

  // Sets the one-way delay applied to packets of `flow_id` accepted from
  // now on; packets already in flight keep their release times. Without
  // jitter a delay change may let the flow's later packets overtake its
  // earlier ones, as with tc-netem; with jitter the per-flow clamp keeps
  // the flow in order.
  void set_flow_delay(uint32_t flow_id, TimeDelta delay);
  [[nodiscard]] TimeDelta flow_delay(uint32_t flow_id) const;

  // tc-netem's `delay ... jitter`: each packet gets an extra uniform
  // [0, jitter) delay, modelling kernel/NIC scheduling noise. Unlike raw
  // netem we never reorder within a flow (delivery times are clamped to be
  // non-decreasing per flow), because spurious reordering would trigger
  // dupacks the real testbed does not see.
  void set_jitter(TimeDelta jitter, uint64_t seed);

  void accept(Packet&& pkt) override;
  void on_event(uint32_t tag, uint64_t arg) override;

  // Capacity hints (no observable effect): size the per-flow table for
  // `flows` flows, and the lane storage for `packets` packets in flight,
  // so steady-state operation rarely grows either (the harness calls these
  // up front; the zero-allocation gate in tools/ccas_perf watches the
  // result).
  void reserve_flows(uint32_t flows) { flows_.reserve(flows); }
  void reserve_in_flight(size_t packets) { pool_.reserve(packets); }

  [[nodiscard]] size_t in_transit() const { return in_transit_; }
  [[nodiscard]] int64_t in_transit_bytes() const { return in_transit_bytes_; }

  // Lane storage per packet in flight, for memory estimates. Each held
  // packet stands in for a pending event, so this must not be below
  // SimBudget::kPendingEventRssBytes (see runner.cc's RSS estimate).
  [[nodiscard]] static constexpr int64_t held_packet_bytes() { return sizeof(Held); }

 private:
  // One packet in flight: it, its release time, and its reserved key.
  struct Held {
    Time release;
    EventKey key;
    Packet pkt;
  };
  using Lanes = LanePool<Held>;
  // Event args name a lane: a delay-lane index, or kFlowLane | flow id.
  static constexpr uint64_t kFlowLane = uint64_t{1} << 32;

  // Per-flow state, one record per flow: the configured delay, its delay
  // lane, the jitter ordering clamp and the flow's jitter lane.
  struct FlowState {
    TimeDelta delay = TimeDelta::zero();
    Time last_release = Time::zero();
    uint32_t delay_lane = 0;  // delay_lanes_[0] is the zero delay
    Lanes::Lane jitter_lane;
  };
  struct DelayLane {
    TimeDelta delay;
    Lanes::Lane fifo;
  };

  [[nodiscard]] Lanes::Lane& lane(uint64_t id) {
    return (id & kFlowLane) != 0 ? flows_[static_cast<uint32_t>(id)].jitter_lane
                                 : delay_lanes_[id].fifo;
  }

  Simulator& sim_;
  PacketSink* dest_;
  std::vector<FlowState> flows_;
  // One per distinct delay ever set, in first-use order (a handful in
  // practice: one per RTT group). Append-only: flows and pending events
  // refer to lanes by index.
  std::vector<DelayLane> delay_lanes_;
  TimeDelta jitter_ = TimeDelta::zero();
  std::unique_ptr<Rng> jitter_rng_;
  Lanes pool_;
  size_t in_transit_ = 0;
  int64_t in_transit_bytes_ = 0;
};

}  // namespace ccas
