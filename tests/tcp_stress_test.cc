// Failure-injection stress tests: every CCA driven through a channel with
// i.i.d. random loss at rates from 0.1% to 20%. Invariants checked:
// the connection always makes forward progress, recovers to a contiguous
// receive stream once loss stops, and never violates pipe accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/cca/cca.h"
#include "src/net/delay_line.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/util/rng.h"

namespace ccas {
namespace {

class RandomLossChannel : public PacketSink {
 public:
  RandomLossChannel(PacketSink* dest, double loss_rate, uint64_t seed)
      : dest_(dest), loss_rate_(loss_rate), rng_(seed) {}

  void set_loss_rate(double p) { loss_rate_ = p; }

  void accept(Packet&& pkt) override {
    if (pkt.type == PacketType::kData && rng_.next_double() < loss_rate_) {
      ++dropped_;
      return;
    }
    dest_->accept(std::move(pkt));
  }

  [[nodiscard]] uint64_t dropped() const { return dropped_; }

 private:
  PacketSink* dest_;
  double loss_rate_;
  Rng rng_;
  uint64_t dropped_ = 0;
};

class Hook : public PacketSink {
 public:
  void accept(Packet&& pkt) override { target_->accept(std::move(pkt)); }
  void set_target(PacketSink* t) { target_ = t; }

 private:
  PacketSink* target_ = nullptr;
};

// One stress case: a CCA and an i.i.d. loss rate in permille. The CCA name
// is a std::string, not a const char*: gtest prints a pointer parameter as
// its address, which would put an ASLR-dependent value into the test names
// that ctest discovers.
struct LossCase {
  std::string cca;
  int permille;
};

void PrintTo(const LossCase& c, std::ostream* os) {
  *os << c.cca << ',' << c.permille << "permille";
}

std::vector<LossCase> loss_cases() {
  std::vector<LossCase> cases;
  for (const CcaRow& row : cca_table()) {
    for (const int permille : {1, 10, 50, 200}) cases.push_back({row.name, permille});
  }
  return cases;
}

class RandomLossStress : public ::testing::TestWithParam<LossCase> {};

TEST_P(RandomLossStress, SurvivesAndRecovers) {
  const std::string& cca_name = GetParam().cca;
  const double loss = GetParam().permille / 1000.0;

  Simulator sim;
  Hook to_sender;
  DelayLine rev(sim, TimeDelta::millis(10), &to_sender);
  TcpReceiver rcv(sim, 0, &rev);
  DelayLine fwd(sim, TimeDelta::millis(10), &rcv);
  RandomLossChannel channel(&fwd, loss, /*seed=*/1234);
  TcpSenderConfig cfg;
  cfg.max_window = 512;  // delay-only path: bound the window
  Rng rng(7);
  TcpSender snd(sim, 0, make_cca(cca_name, rng), &channel, cfg);
  to_sender.set_target(&snd);

  snd.start();
  // Phase 1: 30 s under loss. Must keep making progress.
  uint64_t last_rcv = 0;
  for (int chunk = 0; chunk < 6; ++chunk) {
    sim.run_until(sim.now() + TimeDelta::seconds(5));
    EXPECT_GT(rcv.rcv_nxt(), last_rcv)
        << cca_name << " stalled at loss " << loss << ", chunk " << chunk;
    last_rcv = rcv.rcv_nxt();
    EXPECT_LE(snd.inflight(), 512u + 2);
  }
  EXPECT_GT(channel.dropped(), 0u);

  // Phase 2: loss stops; the stream must become contiguous and fast.
  channel.set_loss_rate(0.0);
  sim.run_until(sim.now() + TimeDelta::seconds(10));
  EXPECT_EQ(rcv.out_of_order_ranges(), 0u) << cca_name;
  const uint64_t before = rcv.rcv_nxt();
  sim.run_until(sim.now() + TimeDelta::seconds(2));
  EXPECT_GT(rcv.rcv_nxt(), before + 100) << cca_name;
  // Sender and receiver agree on what was delivered (up to in-flight ACKs).
  EXPECT_LE(snd.stats().delivered, rcv.rcv_nxt());
}

INSTANTIATE_TEST_SUITE_P(
    CcasAndLossRates, RandomLossStress, ::testing::ValuesIn(loss_cases()),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      // gtest names allow only [A-Za-z0-9_]: "bbr-mincwnd-2" -> "bbr_mincwnd_2".
      std::string name = info.param.cca;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_loss" + std::to_string(info.param.permille) + "permille";
    });

}  // namespace
}  // namespace ccas
