// Differential property test: NetemDelay's lanes (one pending event per
// lane head, keys reserved at accept) against the per-packet design it
// replaced (one event per in-flight packet, packets in a LIFO slot pool),
// copied here as the oracle. Both run the same randomized script —
// flows sharing delays, zero delays, same-nanosecond accepts, mid-run
// delay and jitter changes, unrelated events at colliding nanoseconds,
// deliveries that re-enter the netem, causal keys on and off — and must
// produce the same (time, flow, seq) deliveries interleaved identically
// with every other event, with the same event count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/net/delay_line.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace ccas {
namespace {

// The per-packet NetemDelay (relay support dropped: the sharded fabric has
// its own differential wall in parallel_property_test.cc).
class SlotPoolNetem final : public PacketSink, public EventHandler {
 public:
  SlotPoolNetem(Simulator& sim, PacketSink* dest) : sim_(sim), dest_(dest) {}

  void set_flow_delay(uint32_t flow_id, TimeDelta delay) {
    if (flow_id >= lanes_.size()) lanes_.resize(flow_id + 1);
    lanes_[flow_id].delay = delay;
  }
  void set_jitter(TimeDelta jitter, uint64_t seed) {
    jitter_ = jitter;
    jitter_rng_ = jitter.is_zero() ? nullptr : std::make_unique<Rng>(seed);
  }

  void accept(Packet&& pkt) override {
    const uint32_t flow = pkt.flow_id;
    if (flow >= lanes_.size()) lanes_.resize(flow + 1);
    FlowLane& lane = lanes_[flow];
    Time release = sim_.now() + lane.delay;
    if (jitter_rng_ != nullptr) {
      release = release + jitter_ * jitter_rng_->next_double();
      if (release < lane.last_release) release = lane.last_release;
      lane.last_release = release;
    }
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(pkt);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(std::move(pkt));
    }
    ++in_transit_;
    sim_.schedule_at(release, this, 0, slot);
  }

  void on_event(uint32_t /*tag*/, uint64_t arg) override {
    const auto slot = static_cast<uint32_t>(arg);
    Packet p = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    --in_transit_;
    dest_->accept(std::move(p));
  }

  [[nodiscard]] size_t in_transit() const { return in_transit_; }

 private:
  struct FlowLane {
    TimeDelta delay = TimeDelta::zero();
    Time last_release = Time::zero();
  };
  Simulator& sim_;
  PacketSink* dest_;
  std::vector<FlowLane> lanes_;
  TimeDelta jitter_ = TimeDelta::zero();
  std::unique_ptr<Rng> jitter_rng_;
  std::vector<Packet> slots_;
  std::vector<uint32_t> free_slots_;
  size_t in_transit_ = 0;
};

// One script step; all steps of a script run in one simulator, chained:
// step i schedules step i+1 after doing its work, so the script's own pushes
// interleave with the netem's key reservations.
struct Step {
  enum Kind { kAccept, kSetDelay, kSetJitter, kProbe };
  Kind kind = kAccept;
  TimeDelta gap;  // after the previous step; zero = same nanosecond
  uint32_t flow = 0;
  TimeDelta value;  // delay (kSetDelay), jitter (kSetJitter), offset (kProbe)
};

struct Script {
  bool causal = false;
  uint32_t flows = 1;
  std::vector<TimeDelta> initial_delay;  // per flow; negative = left unset
  TimeDelta jitter;
  uint64_t jitter_seed = 0;
  std::vector<Step> steps;
};

Script make_script(uint64_t seed) {
  Rng rng(seed);
  Script s;
  s.causal = rng.next_below(3) == 0;
  s.flows = 1 + static_cast<uint32_t>(rng.next_below(10));
  // A small delay pool, so flows share delays and probes collide with
  // release times; zero delay is always possible.
  std::vector<TimeDelta> pool{TimeDelta::zero()};
  const uint64_t extra = 1 + rng.next_below(3);
  for (uint64_t i = 0; i < extra; ++i) {
    pool.push_back(rng.next_below(2) == 0
                       ? TimeDelta::nanos(1 + static_cast<int64_t>(rng.next_below(5000)))
                       : TimeDelta::micros(1 + static_cast<int64_t>(rng.next_below(3000))));
  }
  auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  for (uint32_t f = 0; f < s.flows; ++f) {
    s.initial_delay.push_back(rng.next_below(5) == 0 ? TimeDelta::nanos(-1) : pick());
  }
  auto pick_jitter = [&] {
    return rng.next_below(2) == 0
               ? TimeDelta::zero()
               : TimeDelta::nanos(1 + static_cast<int64_t>(rng.next_below(600'000)));
  };
  s.jitter = pick_jitter();
  s.jitter_seed = rng.next_u64();
  const uint64_t n = 100 + rng.next_below(400);
  for (uint64_t i = 0; i < n; ++i) {
    Step st;
    const uint64_t r = rng.next_below(100);
    st.kind = r < 70   ? Step::kAccept
              : r < 76 ? Step::kSetDelay
              : r < 78 ? Step::kSetJitter
                       : Step::kProbe;
    // Same-nanosecond steps are common on purpose.
    st.gap = rng.next_below(3) == 0
                 ? TimeDelta::zero()
                 : TimeDelta::nanos(1 + static_cast<int64_t>(rng.next_below(400'000)));
    st.flow = static_cast<uint32_t>(rng.next_below(s.flows));
    if (st.kind == Step::kSetDelay || st.kind == Step::kProbe) st.value = pick();
    if (st.kind == Step::kSetJitter) st.value = pick_jitter();
    s.steps.push_back(st);
  }
  return s;
}

struct Record {
  int64_t at_ns;
  int kind;  // 0 = delivery, 1 = probe, 2 = step
  uint64_t a;
  uint64_t b;
  bool operator==(const Record&) const = default;
};

void PrintTo(const Record& r, std::ostream* os) {
  static constexpr const char* kKinds[] = {"delivery", "probe", "step"};
  *os << "t=" << r.at_ns << "ns " << kKinds[r.kind] << " (" << r.a << ", " << r.b << ")";
}

struct Outcome {
  std::vector<Record> log;
  uint64_t events = 0;
  uint64_t pending_max = 0;
  size_t left_in_transit = 0;
};

// Runs `script` through one netem implementation and logs every dispatch
// the script can observe.
template <typename Netem>
Outcome run_script(const Script& script) {
  Simulator sim;
  if (script.causal) sim.enable_causal_keys();
  std::vector<Record> log;

  struct Probe : EventHandler {
    Simulator* sim;
    std::vector<Record>* log;
    void on_event(uint32_t tag, uint64_t arg) override {
      log->push_back({sim->now().ns(), 1, tag, arg});
    }
  } probe;
  probe.sim = &sim;
  probe.log = &log;

  // Logs deliveries; some of them re-enter the netem (an echo packet on
  // the next flow) or schedule an unrelated event at the same nanosecond.
  struct Sink : PacketSink {
    Simulator* sim;
    std::vector<Record>* log;
    Probe* probe;
    Netem* netem = nullptr;
    uint32_t flows = 1;
    void accept(Packet&& pkt) override {
      log->push_back({sim->now().ns(), 0, pkt.flow_id, pkt.seq});
      if (pkt.seq % 5 == 1) sim->schedule_at(sim->now(), probe, 1, pkt.seq);
      if (pkt.seq % 7 == 3 && pkt.seq < (uint64_t{1} << 40)) {
        netem->accept(Packet::make_data((pkt.flow_id + 1) % flows, 0,
                                        pkt.seq + (uint64_t{1} << 40), false));
      }
    }
  } sink;
  sink.sim = &sim;
  sink.log = &log;
  sink.probe = &probe;
  sink.flows = script.flows;

  Netem netem(sim, &sink);
  sink.netem = &netem;
  for (uint32_t f = 0; f < script.flows; ++f) {
    if (script.initial_delay[f] >= TimeDelta::zero()) {
      netem.set_flow_delay(f, script.initial_delay[f]);
    }
  }
  netem.set_jitter(script.jitter, script.jitter_seed);

  struct Stepper : EventHandler {
    Simulator* sim;
    std::vector<Record>* log;
    Probe* probe;
    Netem* netem;
    const Script* script;
    uint64_t next_seq = 0;
    void on_event(uint32_t /*tag*/, uint64_t i) override {
      const Step& st = script->steps[i];
      log->push_back({sim->now().ns(), 2, i, 0});
      switch (st.kind) {
        case Step::kAccept:
          netem->accept(Packet::make_data(st.flow, 0, next_seq++, false));
          break;
        case Step::kSetDelay:
          netem->set_flow_delay(st.flow, st.value);
          break;
        case Step::kSetJitter:
          netem->set_jitter(st.value, script->jitter_seed + i);
          break;
        case Step::kProbe:
          sim->schedule_at(sim->now() + st.value, probe, 0, i);
          break;
      }
      if (i + 1 < script->steps.size()) {
        sim->schedule_at(sim->now() + script->steps[i + 1].gap, this, 0, i + 1);
      }
    }
  } stepper;
  stepper.sim = &sim;
  stepper.log = &log;
  stepper.probe = &probe;
  stepper.netem = &netem;
  stepper.script = &script;
  sim.schedule_at(Time::zero() + script.steps[0].gap, &stepper, 0, 0);

  sim.run();
  return Outcome{std::move(log), sim.events_processed(), sim.profile().pending_max,
                 netem.in_transit()};
}

// Same log record for record (reporting the first difference), the same
// number of dispatches — one per delivered packet, as before — and never a
// larger pending set.
void expect_same_outcome(const Outcome& lanes, const Outcome& oracle,
                         const std::string& label) {
  const size_t n = std::min(lanes.log.size(), oracle.log.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lanes.log[i], oracle.log[i]) << label << ", record " << i << " (lanes vs per-packet)";
  }
  ASSERT_EQ(lanes.log.size(), oracle.log.size()) << label;
  EXPECT_EQ(lanes.events, oracle.events) << label;
  EXPECT_LE(lanes.pending_max, oracle.pending_max) << label;
  EXPECT_EQ(lanes.left_in_transit, 0u) << label;
  EXPECT_EQ(oracle.left_in_transit, 0u) << label;
}

TEST(NetemLanesProperty, MatchesPerPacketEventsOnRandomScripts) {
  int causal = 0;
  int jittered = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    const Script script = make_script(seed);
    causal += script.causal ? 1 : 0;
    jittered += script.jitter.is_zero() ? 0 : 1;
    expect_same_outcome(run_script<NetemDelay>(script), run_script<SlotPoolNetem>(script),
                        "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
  // The generator covers both key modes and both lane kinds.
  EXPECT_GT(causal, 100);
  EXPECT_GT(jittered, 150);
}

// The scenario the lanes exist for: many packets of a few delays in flight
// at once. Same deliveries, and the pending set stays at one event per
// lane instead of one per packet.
TEST(NetemLanesProperty, HoldsOneEventPerDelayLane) {
  Script script;
  script.flows = 30;
  for (uint32_t f = 0; f < script.flows; ++f) {
    script.initial_delay.push_back(TimeDelta::millis(10 * (1 + f % 3)));
  }
  for (uint32_t i = 0; i < 3000; ++i) {
    Step st;
    st.gap = TimeDelta::nanos(i % 4 == 0 ? 0 : 1200);
    st.flow = i % script.flows;
    script.steps.push_back(st);
  }
  const Outcome lanes = run_script<NetemDelay>(script);
  const Outcome oracle = run_script<SlotPoolNetem>(script);
  expect_same_outcome(lanes, oracle, "3 delays");
  // 3 lane heads + the script's next step (+ same-ns probes).
  EXPECT_LE(lanes.pending_max, 8u);
  EXPECT_GT(oracle.pending_max, 2000u);
}

}  // namespace
}  // namespace ccas
