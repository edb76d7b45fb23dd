// A cancellable, re-armable one-shot timer.
//
// The event queue does not support removal, so the timer is lazy: it keeps
// at most one live queue entry. Re-arming *later* (the common case — e.g.
// a TCP RTO restarted on every cumulative ACK) does not touch the queue at
// all; the existing entry fires early, notices the new deadline, and
// re-schedules itself once per deadline interval. Re-arming *earlier*
// pushes a new entry and invalidates the old one via a generation counter
// — unless the existing entry is within `rearm_slack` of the new deadline,
// in which case it is reused and the callback fires at most `slack` late
// (set_rearm_slack; default zero, i.e. exact).
//
// Both lazy paths cost wasted wakeups (entries dispatched only to discover
// they are stale or early); the profiler counts them so the trade-off is
// visible (`ccas_run --perf`).
#pragma once

#include <functional>
#include <utility>

#include "src/sim/simulator.h"

namespace ccas {

class Timer final : public EventHandler {
 public:
  Timer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Allows re-arms to an earlier deadline to reuse a pending entry that is
  // at most `slack` later, instead of pushing a replacement entry. The
  // callback then fires up to `slack` after the requested deadline, so a
  // non-zero slack trades timer precision for queue traffic (and changes
  // simulation timing: golden-traced configurations keep it at zero).
  void set_rearm_slack(TimeDelta slack) { rearm_slack_ = slack; }
  [[nodiscard]] TimeDelta rearm_slack() const { return rearm_slack_; }

  // (Re)arms the timer; a previously pending expiry is superseded.
  void arm_at(Time at) {
    armed_ = true;
    expiry_ = at;
    if (scheduled_) {
      if (scheduled_at_ <= at) return;  // lazy: reuse the entry
      if (scheduled_at_ - at <= rearm_slack_) {
        // Coalesce: the existing entry is close enough; fire late.
        ++sim_.mutable_profile().timer_coalesced_rearms;
        return;
      }
    }
    ++generation_;
    scheduled_ = true;
    scheduled_at_ = at;
    note_push(at);
    sim_.schedule_at(at, this, 0, generation_);
  }
  void arm_in(TimeDelta delay) { arm_at(sim_.now() + delay); }

  // Arms only if not already pending (keeps the earlier expiry).
  void arm_in_if_idle(TimeDelta delay) {
    if (!armed_) arm_in(delay);
  }

  void cancel() { armed_ = false; }

  [[nodiscard]] bool is_armed() const { return armed_; }
  [[nodiscard]] Time expiry() const { return expiry_; }

  // Whether any queue entry pointing at this timer is still pending — even
  // a cancelled or superseded timer keeps each pushed entry until it fires
  // (removal is lazy), and a re-arm-earlier can leave two entries live at
  // once. The owner of a Timer must not be destroyed while an entry is
  // pending, or the dispatch would be a use-after-free; the workload
  // engine's slot reaper polls these before recycling a flow slab
  // (DESIGN.md §12).
  [[nodiscard]] bool has_pending_entry() const { return pending_entries_ > 0; }
  // Timestamp of the last pending entry to fire; Time::zero() when none is
  // pending.
  [[nodiscard]] Time pending_entry_at() const { return latest_pending_at_; }

  void on_event(uint32_t /*tag*/, uint64_t arg) override {
    --pending_entries_;
    if (pending_entries_ == 0) latest_pending_at_ = Time::zero();
    if (arg != generation_) {
      // Superseded by an earlier re-arm.
      ++sim_.mutable_profile().timer_stale_wakeups;
      return;
    }
    scheduled_ = false;
    if (!armed_) return;  // cancelled
    if (sim_.now() < expiry_) {
      // Re-armed later since this entry was pushed: chase the deadline.
      ++sim_.mutable_profile().timer_chase_wakeups;
      ++generation_;
      scheduled_ = true;
      scheduled_at_ = expiry_;
      note_push(expiry_);
      sim_.schedule_at(expiry_, this, 0, generation_);
      return;
    }
    armed_ = false;
    callback_();
  }

 private:
  void note_push(Time at) {
    ++pending_entries_;
    if (at > latest_pending_at_) latest_pending_at_ = at;
  }

  Simulator& sim_;
  std::function<void()> callback_;
  uint64_t generation_ = 0;
  Time expiry_ = Time::zero();
  Time scheduled_at_ = Time::zero();
  Time latest_pending_at_ = Time::zero();
  TimeDelta rearm_slack_ = TimeDelta::zero();
  uint32_t pending_entries_ = 0;
  bool armed_ = false;
  bool scheduled_ = false;
};

}  // namespace ccas
