// Tests for the event queue, simulator kernel, and lazy timer.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/timer.h"

namespace ccas {
namespace {

class RecordingHandler : public EventHandler {
 public:
  void on_event(uint32_t tag, uint64_t arg) override {
    tags.push_back(tag);
    args.push_back(arg);
  }
  std::vector<uint32_t> tags;
  std::vector<uint64_t> args;
};

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  RecordingHandler h;
  q.push(Time::nanos(30), &h, 3, 0);
  q.push(Time::nanos(10), &h, 1, 0);
  q.push(Time::nanos(20), &h, 2, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().tag, 1u);
  EXPECT_EQ(q.pop().tag, 2u);
  EXPECT_EQ(q.pop().tag, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  RecordingHandler h;
  for (uint32_t i = 0; i < 100; ++i) q.push(Time::nanos(5), &h, i, 0);
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(q.pop().tag, i);
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  RecordingHandler h;
  q.push(Time::nanos(10), &h, 1, 0);
  q.push(Time::nanos(5), &h, 0, 0);
  EXPECT_EQ(q.pop().tag, 0u);
  q.push(Time::nanos(7), &h, 2, 0);
  EXPECT_EQ(q.pop().tag, 2u);
  EXPECT_EQ(q.pop().tag, 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  // Regression: the old binary heap read heap_.front() of an empty vector
  // (undefined behaviour); the queue must fail loudly instead.
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
  RecordingHandler h;
  q.push(Time::nanos(5), &h, 0, 0);
  (void)q.pop();
  EXPECT_THROW((void)q.pop(), std::logic_error);  // emptied by popping too
}

TEST(EventQueue, TopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.top(), std::logic_error);
}

TEST(EventQueue, ReservedKeyDispatchesBeforeLaterSameNsPushes) {
  EventQueue q;
  RecordingHandler h;
  const uint64_t early = q.reserve_seq();
  q.push(Time::nanos(5), &h, 1, 0);
  q.push(Time::nanos(5), &h, 2, 0);
  const uint64_t late = q.reserve_seq();
  q.push(Time::nanos(5), &h, 3, 0);
  // Pushed last, filed under the keys reserved before and between the
  // plain pushes.
  q.push_reserved(Time::nanos(5), EventKey{late, {}}, &h, 10, 0);
  q.push_reserved(Time::nanos(5), EventKey{early, {}}, &h, 0, 0);
  EXPECT_EQ(q.pop().tag, 0u);
  EXPECT_EQ(q.pop().tag, 1u);
  EXPECT_EQ(q.pop().tag, 2u);
  EXPECT_EQ(q.pop().tag, 10u);
  EXPECT_EQ(q.pop().tag, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ReservedKeyKeepsItsPlaceUnderCausalKeys) {
  // A handler at t=1 reserves a key, lets two same-ns events be scheduled
  // after it, then pushes under the reserved key: it still runs first,
  // with or without causal keys.
  for (const bool causal : {false, true}) {
    Simulator sim;
    if (causal) sim.enable_causal_keys();
    RecordingHandler h;
    sim.schedule_fn_at(Time::nanos(1), [&] {
      const EventKey key = sim.reserve_key();
      sim.schedule_at(Time::nanos(7), &h, 1, 0);
      sim.schedule_at(Time::nanos(7), &h, 2, 0);
      sim.schedule_reserved(Time::nanos(7), key, &h, 0, 0);
    });
    sim.run();
    EXPECT_EQ(h.tags, (std::vector<uint32_t>{0, 1, 2})) << "causal=" << causal;
  }
}

TEST(EventQueue, ClearResets) {
  EventQueue q;
  RecordingHandler h;
  q.push(Time::nanos(10), &h, 1, 0);
  q.push(Time::seconds_f(100.0), &h, 2, 0);  // beyond the wheels, in overflow
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.pop(), std::logic_error);
  q.push(Time::nanos(3), &h, 7, 0);
  EXPECT_EQ(q.pop().tag, 7u);
}

TEST(EventQueue, SpansWheelLevelsAndOverflow) {
  // One event per scheduler tier; order must hold across all of them.
  EventQueue q;
  RecordingHandler h;
  q.push(Time::seconds_f(100.0), &h, 5, 0);  // overflow (> ~68.7s horizon)
  q.push(Time::nanos(1), &h, 1, 0);          // due slot
  q.push(Time::nanos(5000), &h, 2, 0);       // level 0
  q.push(Time::nanos(2'000'000), &h, 3, 0);  // level 1 (2 ms)
  q.push(Time::nanos(1'000'000'000), &h, 4, 0);  // level 2 (1 s)
  for (uint32_t expected = 1; expected <= 5; ++expected) {
    EXPECT_EQ(q.pop().tag, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, AdvancesClockAndDispatches) {
  Simulator sim;
  RecordingHandler h;
  sim.schedule_in(TimeDelta::millis(5), &h, 42, 7);
  sim.run();
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(5));
  ASSERT_EQ(h.tags.size(), 1u);
  EXPECT_EQ(h.tags[0], 42u);
  EXPECT_EQ(h.args[0], 7u);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  RecordingHandler h;
  sim.schedule_at(Time::nanos(100), &h, 1, 0);
  sim.schedule_at(Time::nanos(300), &h, 2, 0);
  sim.run_until(Time::nanos(200));
  EXPECT_EQ(h.tags.size(), 1u);
  EXPECT_EQ(sim.now(), Time::nanos(200));  // clock lands on the deadline
  sim.run_until(Time::nanos(400));
  EXPECT_EQ(h.tags.size(), 2u);
}

TEST(Simulator, EventsScheduledDuringDispatchRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_fn_in(TimeDelta::millis(1), chain);
  };
  sim.schedule_fn_in(TimeDelta::millis(1), chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(5));
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  RecordingHandler h;
  sim.schedule_fn_in(TimeDelta::millis(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Time::nanos(10), &h, 0, 0), std::invalid_argument);
}

TEST(Simulator, StopExitsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_fn_in(TimeDelta::millis(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_fn_in(TimeDelta::millis(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(Timer, FiresAtExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(10));
  EXPECT_TRUE(t.is_armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.is_armed());
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(10));
}

TEST(Timer, CancelSuppressesCallback) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmLaterFiresAtNewDeadlineWithoutExtraHeapEntries) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(10));
  const size_t pending_after_first_arm = sim.pending_events();
  // Re-arming later must not add heap entries (the lazy path).
  for (int i = 0; i < 100; ++i) t.arm_in(TimeDelta::millis(10 + i));
  EXPECT_EQ(sim.pending_events(), pending_after_first_arm);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(109));
}

TEST(Timer, RearmEarlierFiresEarlier) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(100));
  t.arm_in(TimeDelta::millis(10));
  sim.run_until(Time::zero() + TimeDelta::millis(20));
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 1);  // the stale entry for t=100ms must not re-fire
}

TEST(Timer, ArmInIfIdleKeepsEarlierDeadline) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(5));
  t.arm_in_if_idle(TimeDelta::millis(50));  // ignored: already armed
  sim.run_until(Time::zero() + TimeDelta::millis(10));
  EXPECT_EQ(fired, 1);
}

TEST(Timer, RearmableFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fired < 3) tp->arm_in(TimeDelta::millis(1));
  });
  tp = &t;
  t.arm_in(TimeDelta::millis(1));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Profiler, CountsDispatchesByTag) {
  Simulator sim;
  RecordingHandler h;
  sim.schedule_in(TimeDelta::millis(1), &h, 0, 0);
  sim.schedule_in(TimeDelta::millis(2), &h, 3, 0);
  sim.schedule_in(TimeDelta::millis(3), &h, 3, 0);
  sim.schedule_in(TimeDelta::millis(4), &h, 99, 0);  // overflow bucket
  sim.run();
  const SimProfile& p = sim.profile();
  EXPECT_EQ(p.events_dispatched, 4u);
  EXPECT_EQ(p.events_by_tag[0], 1u);
  EXPECT_EQ(p.events_by_tag[3], 2u);
  EXPECT_EQ(p.events_by_tag[SimProfile::kMaxTag], 1u);
  EXPECT_GE(p.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(p.sim_seconds, 0.004);
  EXPECT_GT(p.events_per_wall_sec(), 0.0);
  EXPECT_FALSE(p.summary().empty());
}

TEST(Profiler, GaugesThePendingSet) {
  Simulator sim;
  RecordingHandler h;
  for (int64_t i = 1; i <= 5000; ++i) sim.schedule_at(Time::nanos(i * 10), &h, 0, 0);
  sim.run();
  const SimProfile& p = sim.profile();
  EXPECT_EQ(p.pending_max, 5000u);
  // Sampled after dispatches 1024, 2048, 3072 and 4096.
  ASSERT_EQ(p.pending_samples, 4u);
  EXPECT_DOUBLE_EQ(p.pending_mean(), (3976.0 + 2952.0 + 1928.0 + 904.0) / 4.0);
  EXPECT_NE(p.summary().find("pending set: max=5000 mean=2440"), std::string::npos);
}

TEST(Profiler, CountsSchedulerTierPlacement) {
  Simulator sim;
  RecordingHandler h;
  sim.schedule_at(Time::nanos(100), &h, 0, 0);        // due slot
  sim.schedule_at(Time::nanos(5'000'000), &h, 0, 0);  // a wheel level
  sim.schedule_at(Time::seconds_f(100.0), &h, 0, 0);  // beyond the horizon
  sim.run();
  const SimProfile& p = sim.profile();
  // Draining the overflow heap re-places its events through the normal
  // push path, so the far-future event is counted twice: once into
  // overflow, then again into due/wheel when its page is reached.
  EXPECT_GE(p.pushes_due, 1u);
  EXPECT_GE(p.pushes_wheel, 1u);
  EXPECT_EQ(p.pushes_overflow, 1u);
  EXPECT_GE(p.overflow_drains, 1u);
  EXPECT_EQ(p.pushes_due + p.pushes_wheel, 4u);  // 3 schedules + 1 re-place
}

TEST(Profiler, CountsWastedTimerWakeups) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  // Chase: arm, then re-arm later; the original entry wakes early and
  // re-schedules itself.
  t.arm_in(TimeDelta::millis(10));
  t.arm_in(TimeDelta::millis(30));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.profile().timer_chase_wakeups, 1u);
  // Stale: arm, then re-arm earlier (no slack); the superseded entry is
  // dispatched and discarded by its generation check.
  t.arm_in(TimeDelta::millis(100));
  t.arm_in(TimeDelta::millis(50));
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.profile().timer_stale_wakeups, 1u);
  EXPECT_EQ(sim.profile().timer_wasted_wakeups(), 2u);
}

TEST(Timer, RearmSlackCoalescesEarlierRearms) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.set_rearm_slack(TimeDelta::millis(2));
  t.arm_in(TimeDelta::millis(10));
  const size_t pending = sim.pending_events();
  // Earlier by 1 ms, within the 2 ms slack: the pending entry is reused
  // and no replacement is pushed.
  t.arm_in(TimeDelta::millis(9));
  EXPECT_EQ(sim.pending_events(), pending);
  EXPECT_EQ(sim.profile().timer_coalesced_rearms, 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  // The callback runs at the original (up to `slack` later) deadline.
  EXPECT_EQ(sim.now(), Time::zero() + TimeDelta::millis(10));
  EXPECT_EQ(sim.profile().timer_stale_wakeups, 0u);
}

TEST(Timer, RearmSlackZeroKeepsExactTiming) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.arm_in(TimeDelta::millis(10));
  t.arm_in(TimeDelta::millis(9));  // earlier, no slack: exact replacement
  sim.run_until(Time::zero() + TimeDelta::millis(9));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.profile().timer_coalesced_rearms, 0u);
}

TEST(Timer, RearmBeyondSlackStillReplacesEntry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.set_rearm_slack(TimeDelta::millis(2));
  t.arm_in(TimeDelta::millis(10));
  t.arm_in(TimeDelta::millis(5));  // earlier by 5 ms > 2 ms slack
  sim.run_until(Time::zero() + TimeDelta::millis(5));
  EXPECT_EQ(fired, 1);  // fires at the exact new deadline
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.profile().timer_stale_wakeups, 1u);
}

}  // namespace
}  // namespace ccas
