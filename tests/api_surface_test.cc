// Coverage for the smaller public API surfaces: packet SACK encoding,
// event-queue maintenance, simulator conveniences, unit formatting,
// logging configuration, and CCA table introspection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/cca/cca.h"
#include "src/net/packet.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace ccas {
namespace {

TEST(Packet, SackEncodingRoundTrips) {
  Packet ack = Packet::make_ack(3, 1, 1000);
  EXPECT_TRUE(ack.add_sack(1005, 1010));
  EXPECT_TRUE(ack.add_sack(1020, 1021));
  EXPECT_EQ(ack.num_sacks, 2);
  EXPECT_EQ(ack.sack(0).start, 1005u);
  EXPECT_EQ(ack.sack(0).end, 1010u);
  EXPECT_EQ(ack.sack(1).start, 1020u);
  EXPECT_FALSE(ack.sack(0).empty());
}

TEST(Packet, SackDeduplicatesAndCaps) {
  Packet ack = Packet::make_ack(0, 1, 50);
  EXPECT_TRUE(ack.add_sack(60, 70));
  EXPECT_FALSE(ack.add_sack(60, 70));  // duplicate
  EXPECT_TRUE(ack.add_sack(80, 90));
  EXPECT_TRUE(ack.add_sack(100, 110));
  EXPECT_FALSE(ack.add_sack(120, 130));  // full
  EXPECT_EQ(ack.num_sacks, 3);
}

TEST(Packet, FactoryFieldsAndSize) {
  const Packet d = Packet::make_data(7, 0, 42, true);
  EXPECT_EQ(d.type, PacketType::kData);
  EXPECT_TRUE(d.retransmit);
  EXPECT_EQ(d.size_bytes, static_cast<uint32_t>(kDataPacketBytes));
  const Packet a = Packet::make_ack(7, 1, 42);
  EXPECT_EQ(a.type, PacketType::kAck);
  EXPECT_EQ(a.size_bytes, static_cast<uint32_t>(kAckPacketBytes));
  EXPECT_LE(sizeof(Packet), 64u);
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  class Nop : public EventHandler {
   public:
    void on_event(uint32_t, uint64_t) override {}
  } h;
  q.push(Time::nanos(5), &h, 0, 0);
  q.push(Time::nanos(6), &h, 0, 0);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(Simulator, RunForAdvancesRelativeToNow) {
  Simulator sim;
  int fired = 0;
  sim.schedule_fn_in(TimeDelta::millis(3), [&] { ++fired; });
  sim.run_for(TimeDelta::millis(2));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(2));
  sim.run_for(TimeDelta::millis(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(4));
}

TEST(Units, RateToString) {
  EXPECT_EQ(DataRate::gbps(10).to_string(), "10.000Gbps");
  EXPECT_EQ(DataRate::mbps(100).to_string(), "100.000Mbps");
  EXPECT_EQ(DataRate::kbps(5).to_string(), "5.000kbps");
  EXPECT_EQ(DataRate::bps(42).to_string(), "42bps");
  EXPECT_EQ(DataRate::infinite().to_string(), "+inf");
}

TEST(Units, TimeToString) {
  EXPECT_EQ(Time::seconds_f(1.5).to_string(), "t=1.500000s");
  EXPECT_EQ(Time::infinite().to_string(), "+inf");
}

TEST(Logging, EnvInitAndLevels) {
  const LogLevel before = log_level();
  ::setenv("CCAS_LOG", "debug", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  ::setenv("CCAS_LOG", "off", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kOff);
  ::unsetenv("CCAS_LOG");
  set_log_level(before);
}

TEST(CcaRegistry, ListsBuiltins) {
  // The fixed table: the paper's three CCAs plus one BBR per ablated
  // minimum cwnd, sorted by name, each row buildable by name.
  std::vector<std::string> expected = {"newreno", "cubic", "bbr"};
  for (const uint64_t min_cwnd : kBbrMinCwnds) {
    expected.push_back(bbr_mincwnd_cca(min_cwnd));
  }
  std::vector<std::string> names;
  for (const CcaRow& row : cca_table()) names.push_back(row.name);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    EXPECT_EQ(cca_row(name).name, name);
    Rng rng(1);
    EXPECT_NE(make_cca(name, rng), nullptr) << name;
  }
  // A min-cwnd row's BBR falls back to its own floor on an RTO.
  for (const uint64_t min_cwnd : kBbrMinCwnds) {
    Rng rng(1);
    auto cca = make_cca(bbr_mincwnd_cca(min_cwnd), rng);
    cca->on_rto(Time::zero());
    EXPECT_EQ(cca->cwnd(), min_cwnd);
  }
  Rng rng(1);
  EXPECT_THROW(make_cca("definitely-not-a-cca", rng), std::invalid_argument);
  EXPECT_THROW((void)cca_row("definitely-not-a-cca"), std::invalid_argument);
}

}  // namespace
}  // namespace ccas
