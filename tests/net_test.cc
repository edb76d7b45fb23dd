// Tests for the network substrate: drop-tail queue, serializing link,
// delay lines, switch/demux, and the dumbbell topology wiring.
#include <gtest/gtest.h>

#include <vector>

#include "src/net/delay_line.h"
#include "src/net/link.h"
#include "src/net/queue.h"
#include "src/net/switch.h"
#include "src/net/topology.h"

namespace ccas {
namespace {

class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(Simulator& sim) : sim_(sim) {}
  void accept(Packet&& pkt) override {
    packets.push_back(pkt);
    arrival_times.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<Time> arrival_times;

 private:
  Simulator& sim_;
};

Packet data_packet(uint32_t flow, uint64_t seq) {
  return Packet::make_data(flow, DumbbellTopology::kToReceivers, seq, false);
}

// -------------------------------------------------------- queue + link ----

struct LinkFixture {
  explicit LinkFixture(DataRate rate, int64_t buffer_bytes)
      : sink(sim),
        queue(sim, buffer_bytes),
        link(sim, rate, &sink) {
    queue.set_downstream(&link);
    link.set_source(&queue);
  }
  Simulator sim;
  CollectorSink sink;
  DropTailQueue queue;
  Link link;
};

TEST(Link, SerializesAtConfiguredRate) {
  LinkFixture f(DataRate::mbps(100), 1'000'000);
  f.queue.accept(data_packet(0, 0));
  f.queue.accept(data_packet(0, 1));
  f.sim.run();
  ASSERT_EQ(f.sink.packets.size(), 2u);
  // 1500 bytes at 100 Mbps = 120 us per packet, back to back.
  EXPECT_EQ(f.sink.arrival_times[0], Time::zero() + TimeDelta::micros(120));
  EXPECT_EQ(f.sink.arrival_times[1], Time::zero() + TimeDelta::micros(240));
  EXPECT_EQ(f.link.delivered_packets(), 2u);
  EXPECT_EQ(f.link.delivered_bytes(), 3000u);
}

TEST(Link, IdleLinkStartsImmediatelyOnArrival) {
  LinkFixture f(DataRate::mbps(100), 1'000'000);
  f.sim.run_until(Time::zero() + TimeDelta::millis(5));
  f.queue.accept(data_packet(0, 0));
  f.sim.run();
  ASSERT_EQ(f.sink.packets.size(), 1u);
  EXPECT_EQ(f.sink.arrival_times[0],
            Time::zero() + TimeDelta::millis(5) + TimeDelta::micros(120));
}

TEST(DropTailQueue, DropsWhenFullAndLogs) {
  // Capacity for exactly two buffered packets (the head-of-line packet is
  // pulled into transmission immediately, so packet 0 leaves the buffer).
  LinkFixture f(DataRate::kbps(100), 2 * kDataPacketBytes);
  f.queue.reserve_flows(2);
  f.queue.accept(data_packet(0, 0));  // -> in transmission
  f.queue.accept(data_packet(0, 1));  // buffered
  f.queue.accept(data_packet(1, 2));  // buffered
  f.queue.accept(data_packet(1, 3));  // dropped: buffer full
  EXPECT_EQ(f.queue.stats().dropped_packets, 1u);
  EXPECT_EQ(f.queue.per_flow_drops()[0], 0u);
  EXPECT_EQ(f.queue.per_flow_drops()[1], 1u);
  ASSERT_EQ(f.queue.drop_log().size(), 1u);
  EXPECT_EQ(f.queue.drop_log()[0].flow_id, 1u);
  f.sim.run();
  EXPECT_EQ(f.sink.packets.size(), 3u);
  EXPECT_EQ(f.queue.stats().dequeued_packets, 3u);
}

TEST(DropTailQueue, SpaceFreedByDequeueAdmitsAgain) {
  LinkFixture f(DataRate::mbps(100), 2 * kDataPacketBytes);
  f.queue.accept(data_packet(0, 0));
  f.queue.accept(data_packet(0, 1));
  // After one serialization time the head leaves; a new packet fits.
  f.sim.run_until(Time::zero() + TimeDelta::micros(130));
  f.queue.accept(data_packet(0, 2));
  f.sim.run();
  EXPECT_EQ(f.sink.packets.size(), 3u);
  EXPECT_EQ(f.queue.stats().dropped_packets, 0u);
}

TEST(DropTailQueue, TracksMaxDepthAndBytes) {
  LinkFixture f(DataRate::kbps(10), 10 * kDataPacketBytes);
  // One packet goes straight to the link; four stay buffered.
  for (int i = 0; i < 5; ++i) f.queue.accept(data_packet(0, i));
  EXPECT_EQ(f.queue.stats().max_queued_bytes, 4 * kDataPacketBytes);
  EXPECT_EQ(f.queue.queued_bytes(), 4 * kDataPacketBytes);
  EXPECT_EQ(f.queue.queued_packets(), 4u);
}

TEST(DropTailQueue, ResetAccountingClearsCountersNotContents) {
  LinkFixture f(DataRate::kbps(10), 2 * kDataPacketBytes);
  f.queue.reserve_flows(1);
  f.queue.accept(data_packet(0, 0));
  f.queue.accept(data_packet(0, 1));
  f.queue.accept(data_packet(0, 2));  // drop
  f.queue.reset_accounting();
  EXPECT_EQ(f.queue.stats().dropped_packets, 0u);
  EXPECT_EQ(f.queue.stats().enqueued_packets, 0u);
  EXPECT_TRUE(f.queue.drop_log().empty());
  EXPECT_EQ(f.queue.per_flow_drops()[0], 0u);
  // Contents survive.
  EXPECT_EQ(f.queue.queued_packets(), 2u);
}

TEST(DropTailQueue, DropLogCanBeDisabled) {
  LinkFixture f(DataRate::kbps(10), kDataPacketBytes);
  f.queue.set_drop_log_enabled(false);
  f.queue.accept(data_packet(0, 0));  // -> in transmission
  f.queue.accept(data_packet(0, 1));  // buffered
  f.queue.accept(data_packet(0, 2));  // drop, not logged
  EXPECT_EQ(f.queue.stats().dropped_packets, 1u);
  EXPECT_TRUE(f.queue.drop_log().empty());
}

TEST(DropTailQueue, RejectsNonPositiveCapacity) {
  Simulator sim;
  EXPECT_THROW(DropTailQueue(sim, 0), std::invalid_argument);
}

// --------------------------------------------------------- delay lines ----

TEST(DelayLine, DelaysAllPacketsUniformly) {
  Simulator sim;
  CollectorSink sink(sim);
  DelayLine line(sim, TimeDelta::millis(10), &sink);
  line.accept(data_packet(0, 0));
  sim.run_until(Time::zero() + TimeDelta::millis(3));
  line.accept(data_packet(0, 1));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], Time::zero() + TimeDelta::millis(10));
  EXPECT_EQ(sink.arrival_times[1], Time::zero() + TimeDelta::millis(13));
  EXPECT_EQ(sink.packets[0].seq, 0u);
  EXPECT_EQ(sink.packets[1].seq, 1u);
}

TEST(NetemDelay, PerFlowDelays) {
  Simulator sim;
  CollectorSink sink(sim);
  NetemDelay netem(sim, &sink);
  netem.set_flow_delay(0, TimeDelta::millis(50));
  netem.set_flow_delay(1, TimeDelta::millis(5));
  netem.accept(data_packet(0, 100));
  netem.accept(data_packet(1, 200));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  // Flow 1's packet overtakes flow 0's.
  EXPECT_EQ(sink.packets[0].flow_id, 1u);
  EXPECT_EQ(sink.arrival_times[0], Time::zero() + TimeDelta::millis(5));
  EXPECT_EQ(sink.packets[1].flow_id, 0u);
  EXPECT_EQ(sink.arrival_times[1], Time::zero() + TimeDelta::millis(50));
}

TEST(NetemDelay, PreservesPerFlowOrderAndRecyclesSlots) {
  Simulator sim;
  CollectorSink sink(sim);
  NetemDelay netem(sim, &sink);
  netem.set_flow_delay(0, TimeDelta::millis(1));
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 100; ++i) {
      netem.accept(data_packet(0, round * 100 + i));
    }
    sim.run();
  }
  ASSERT_EQ(sink.packets.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(sink.packets[i].seq, i);
  EXPECT_EQ(netem.in_transit(), 0u);
}

TEST(NetemDelay, JitterSpreadsArrivalsWithoutReordering) {
  Simulator sim;
  CollectorSink sink(sim);
  NetemDelay netem(sim, &sink);
  netem.set_flow_delay(0, TimeDelta::millis(10));
  netem.set_jitter(TimeDelta::millis(1), /*seed=*/99);
  for (uint64_t i = 0; i < 200; ++i) {
    netem.accept(data_packet(0, i));
    sim.run_until(sim.now() + TimeDelta::micros(100));
  }
  sim.run();
  ASSERT_EQ(sink.packets.size(), 200u);
  bool saw_extra_delay = false;
  for (size_t i = 0; i < 200; ++i) {
    // In order despite randomness.
    EXPECT_EQ(sink.packets[i].seq, i);
    const TimeDelta delay =
        sink.arrival_times[i] -
        (Time::zero() + TimeDelta::micros(100) * static_cast<int64_t>(i));
    EXPECT_GE(delay, TimeDelta::millis(10));
    EXPECT_LE(delay, TimeDelta::millis(11) + TimeDelta::micros(1));
    if (delay > TimeDelta::millis(10)) saw_extra_delay = true;
  }
  EXPECT_TRUE(saw_extra_delay);
}

TEST(NetemDelay, JitterIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    CollectorSink sink(sim);
    NetemDelay netem(sim, &sink);
    netem.set_flow_delay(0, TimeDelta::millis(5));
    netem.set_jitter(TimeDelta::millis(2), seed);
    for (uint64_t i = 0; i < 50; ++i) netem.accept(data_packet(0, i));
    sim.run();
    return sink.arrival_times;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

// ------------------------------------------------------- switch/demux ----

TEST(SoftwareSwitch, RoutesByDestination) {
  Simulator sim;
  CollectorSink a(sim);
  CollectorSink b(sim);
  SoftwareSwitch sw;
  sw.add_route(0, &a);
  sw.add_route(1, &b);
  Packet p0 = data_packet(9, 0);
  p0.dst = 0;
  Packet p1 = data_packet(9, 1);
  p1.dst = 1;
  sw.accept(std::move(p0));
  sw.accept(std::move(p1));
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(sw.forwarded(), 2u);
}

TEST(SoftwareSwitch, CountsUnroutablePackets) {
  SoftwareSwitch sw;
  Packet p = data_packet(0, 0);
  p.dst = 42;
  sw.accept(std::move(p));
  EXPECT_EQ(sw.dropped_no_route(), 1u);
}

TEST(FlowDemux, RoutesByFlowId) {
  Simulator sim;
  CollectorSink a(sim);
  CollectorSink b(sim);
  FlowDemux demux;
  demux.register_flow(3, &a);
  demux.register_flow(7, &b);
  demux.accept(data_packet(3, 0));
  demux.accept(data_packet(7, 1));
  demux.accept(data_packet(99, 2));  // unknown
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(demux.delivered(), 2u);
  EXPECT_EQ(demux.dropped_unknown_flow(), 1u);
}

// ------------------------------------------------------------ topology ----

TEST(DumbbellTopology, DataPathDeliversToReceiverEndpointWithRtt) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = DataRate::mbps(100);
  cfg.buffer_bytes = 1'000'000;
  cfg.jitter = TimeDelta::zero();  // exact timing checks below
  DumbbellTopology topo(sim, cfg);
  CollectorSink sender_ep(sim);
  CollectorSink receiver_ep(sim);
  topo.register_flow(0, TimeDelta::millis(20), &sender_ep, &receiver_ep);

  topo.data_entry(0).accept(data_packet(0, 5));
  sim.run();
  ASSERT_EQ(receiver_ep.packets.size(), 1u);
  // Serialization (120 us) + forward half of base RTT (10 ms).
  EXPECT_EQ(receiver_ep.arrival_times[0],
            Time::zero() + TimeDelta::micros(120) + TimeDelta::millis(10));

  // ACK path: reverse half of base RTT, no serialization (uncongested).
  Packet ack = Packet::make_ack(0, DumbbellTopology::kToSenders, 6);
  const Time ack_sent = sim.now();
  topo.ack_entry().accept(std::move(ack));
  sim.run();
  ASSERT_EQ(sender_ep.packets.size(), 1u);
  EXPECT_EQ(sender_ep.arrival_times[0] - ack_sent, TimeDelta::millis(10));
}

TEST(DumbbellTopology, RoundTripMatchesBaseRttPlusSerialization) {
  // Odd RTT: the forward/reverse split must still sum to the full base RTT.
  Simulator sim;
  DumbbellConfig cfg;
  cfg.jitter = TimeDelta::zero();  // exact timing checks below
  DumbbellTopology topo(sim, cfg);
  CollectorSink sender_ep(sim);
  CollectorSink receiver_ep(sim);
  topo.register_flow(0, TimeDelta::nanos(20'000'001), &sender_ep, &receiver_ep);
  topo.data_entry(0).accept(data_packet(0, 0));
  sim.run();
  topo.ack_entry().accept(Packet::make_ack(0, DumbbellTopology::kToSenders, 1));
  sim.run();
  ASSERT_EQ(sender_ep.packets.size(), 1u);
  const TimeDelta rtt = sender_ep.arrival_times[0] - Time::zero();
  EXPECT_EQ(rtt, TimeDelta::nanos(20'000'001) +
                     cfg.bottleneck_rate.transfer_time(kDataPacketBytes));
}

TEST(DumbbellTopology, NetemHeldBytesKeepTheRssEstimateAtThePerEventFigure) {
  // A loaded CoreScale state: 3000 flows at 20/40/80 ms, 18000 data
  // packets through the 10 Gbps bottleneck and 18000 ACKs on the return
  // path, stopped before the shortest forward delay releases anything.
  // Netem lanes hold one pending event per lane, not per packet, so the
  // budget's pending_events() x kPendingEventRssBytes shrinks; adding
  // netem_held_bytes() must give back at least the per-event figure
  // (every held packet counted as a pending event, as before the lanes).
  for (const TimeDelta jitter : {TimeDelta::zero(), TimeDelta::micros(500)}) {
    Simulator sim;
    DumbbellConfig cfg;
    cfg.bottleneck_rate = DataRate::gbps(10);
    cfg.buffer_bytes = 375LL * 1000 * 1000;
    cfg.jitter = jitter;
    DumbbellTopology topo(sim, cfg);
    CollectorSink sender_ep(sim);
    CollectorSink receiver_ep(sim);
    constexpr uint32_t kFlows = 3000;
    topo.reserve_flows(kFlows);
    for (uint32_t f = 0; f < kFlows; ++f) {
      topo.register_flow(f, TimeDelta::millis(20 << (f % 3)), &sender_ep, &receiver_ep);
    }
    for (uint64_t i = 0; i < 6; ++i) {
      for (uint32_t f = 0; f < kFlows; ++f) {
        topo.data_entry(f).accept(data_packet(f, i));
        topo.ack_entry().accept(Packet::make_ack(f, DumbbellTopology::kToSenders, i));
      }
    }
    sim.run_until(Time::zero() + TimeDelta::millis(9));
    const int64_t held = topo.netem_held_bytes() / NetemDelay::held_packet_bytes();
    ASSERT_GT(held, 20000);
    const auto pending = static_cast<int64_t>(sim.pending_events());
    EXPECT_LT(pending, held / 4);
    const int64_t per_event_figure = (pending + held) * SimBudget::kPendingEventRssBytes;
    EXPECT_GE(pending * SimBudget::kPendingEventRssBytes + topo.netem_held_bytes(),
              per_event_figure);
  }
}

TEST(DumbbellTopology, AssignsFlowsToPairsRoundRobin) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_pairs = 10;
  DumbbellTopology topo(sim, cfg);
  EXPECT_EQ(topo.pair_of_flow(0), 0);
  EXPECT_EQ(topo.pair_of_flow(9), 9);
  EXPECT_EQ(topo.pair_of_flow(10), 0);
  EXPECT_EQ(topo.pair_of_flow(25), 5);
}

TEST(DumbbellTopology, OptionalEdgeLinksSerialize) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.edge_rate = DataRate::gbps(25);
  cfg.jitter = TimeDelta::zero();  // exact timing checks below
  DumbbellTopology topo(sim, cfg);
  CollectorSink sender_ep(sim);
  CollectorSink receiver_ep(sim);
  topo.register_flow(0, TimeDelta::millis(20), &sender_ep, &receiver_ep);
  topo.data_entry(0).accept(data_packet(0, 0));
  sim.run();
  ASSERT_EQ(receiver_ep.packets.size(), 1u);
  // Edge serialization (1500B at 25 Gbps = 480 ns) + bottleneck (120 us)
  // + 10 ms forward delay.
  EXPECT_EQ(receiver_ep.arrival_times[0],
            Time::zero() + TimeDelta::nanos(480) + TimeDelta::micros(120) +
                TimeDelta::millis(10));
}

TEST(DumbbellTopology, RejectsBadConfig) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.num_pairs = 0;
  EXPECT_THROW(DumbbellTopology(sim, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ccas
