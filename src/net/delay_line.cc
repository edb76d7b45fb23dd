#include "src/net/delay_line.h"

#include <utility>

namespace ccas {

DelayLine::DelayLine(Simulator& sim, TimeDelta delay, PacketSink* dest)
    : sim_(sim), delay_(delay), dest_(dest) {
  if (dest == nullptr) throw std::invalid_argument("DelayLine needs a destination");
  if (delay < TimeDelta::zero()) throw std::invalid_argument("negative delay");
}

void DelayLine::accept(Packet&& pkt) {
  fifo_.push_back(std::move(pkt));
  sim_.schedule_in(delay_, this, 0);
}

void DelayLine::on_event(uint32_t /*tag*/, uint64_t /*arg*/) {
  dest_->accept(fifo_.pop_front());
}

static_assert(NetemDelay::held_packet_bytes() >= SimBudget::kPendingEventRssBytes,
              "a held packet must cost the RSS estimate at least the event it replaced");

NetemDelay::NetemDelay(Simulator& sim, PacketSink* dest) : sim_(sim), dest_(dest) {
  if (dest == nullptr) throw std::invalid_argument("NetemDelay needs a destination");
  delay_lanes_.push_back(DelayLane{TimeDelta::zero(), {}});
}

void NetemDelay::set_flow_delay(uint32_t flow_id, TimeDelta delay) {
  if (delay < TimeDelta::zero()) throw std::invalid_argument("negative delay");
  if (flow_id >= flows_.size()) flows_.resize(flow_id + 1);
  uint32_t idx = 0;
  while (idx < delay_lanes_.size() && delay_lanes_[idx].delay != delay) ++idx;
  if (idx == delay_lanes_.size()) delay_lanes_.push_back(DelayLane{delay, {}});
  flows_[flow_id].delay = delay;
  flows_[flow_id].delay_lane = idx;
}

TimeDelta NetemDelay::flow_delay(uint32_t flow_id) const {
  if (flow_id >= flows_.size()) return TimeDelta::zero();
  return flows_[flow_id].delay;
}

void NetemDelay::set_jitter(TimeDelta jitter, uint64_t seed) {
  if (jitter < TimeDelta::zero()) throw std::invalid_argument("negative jitter");
  jitter_ = jitter;
  jitter_rng_ = jitter.is_zero() ? nullptr : std::make_unique<Rng>(seed);
}

void NetemDelay::accept(Packet&& pkt) {
  // The release time (including the jitter draw and the per-flow ordering
  // clamp) is computed up front, in accept order, so the RNG stream and the
  // clamp state are identical whether the delivery is scheduled here or
  // handed to a relay. The relay must see the final release time: it is the
  // cross-domain deliver_at.
  const uint32_t flow = pkt.flow_id;
  if (flow >= flows_.size()) flows_.resize(flow + 1);
  FlowState& fs = flows_[flow];
  Time release = sim_.now() + fs.delay;
  uint64_t lane_id = fs.delay_lane;
  if (jitter_rng_ != nullptr) {
    release = release + jitter_ * jitter_rng_->next_double();
    // Clamp so packets of one flow never reorder.
    if (release < fs.last_release) release = fs.last_release;
    fs.last_release = release;
    lane_id = kFlowLane | flow;
  }
  if (relay_ != nullptr && relay_->offload(flow, release, std::move(pkt))) {
    // Offloaded packets are accounted by the receiving domain's delivery
    // stage, not here: in_transit_ tracks only locally scheduled packets.
    return;
  }
  // The key is reserved here, where a per-packet schedule_at would have
  // pushed; only the lane's head is actually pushed.
  const EventKey key = sim_.reserve_key();
  Lanes::Lane& l = lane(lane_id);
  if (l.empty()) sim_.schedule_reserved(release, key, this, 0, lane_id);
  ++in_transit_;
  in_transit_bytes_ += pkt.size_bytes;
  pool_.push_back(l, Held{release, key, std::move(pkt)});
}

void NetemDelay::on_event(uint32_t /*tag*/, uint64_t arg) {
  Lanes::Lane& l = lane(arg);
  Held h = pool_.pop_front(l);
  // The next head sorts after this one (same or later release, later
  // key), so nothing ordered after it has run yet and its reserved key
  // puts it exactly where its own per-packet event would be. Push it
  // before delivering: the delivery may re-enter accept() on this lane.
  if (!l.empty()) {
    const Held& next = pool_.front(l);
    sim_.schedule_reserved(next.release, next.key, this, 0, arg);
  }
  --in_transit_;
  in_transit_bytes_ -= h.pkt.size_bytes;
  dest_->accept(std::move(h.pkt));
}

}  // namespace ccas
