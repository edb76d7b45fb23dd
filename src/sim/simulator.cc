#include "src/sim/simulator.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/check/audit.h"
#include "src/util/alloc_counter.h"

namespace ccas {

void Simulator::schedule_at(Time at, EventHandler* handler, uint32_t tag, uint64_t arg) {
  if (at < now_) throw std::invalid_argument("schedule_at: event in the past");
  if (causal_) {
    queue_.push_keyed(at, allocate_push_key(), handler, tag, arg);
    return;
  }
  queue_.push(at, handler, tag, arg);
}

void Simulator::schedule_at_keyed(Time at, CausalKey key, EventHandler* handler,
                                  uint32_t tag, uint64_t arg) {
  if (at < now_) throw std::invalid_argument("schedule_at_keyed: event in the past");
  queue_.push_keyed(at, key, handler, tag, arg);
}

void Simulator::schedule_reserved(Time at, const EventKey& key,
                                  EventHandler* handler, uint32_t tag,
                                  uint64_t arg) {
  if (at < now_) throw std::invalid_argument("schedule_reserved: event in the past");
  queue_.push_reserved(at, key, handler, tag, arg);
}

CausalKey Simulator::allocate_push_key() {
  if (now_ != last_push_ns_) {
    last_push_ns_ = now_;
    *push_major_ptr_ = 0;
  }
  return CausalKey{now_, ++*push_major_ptr_};
}

void Simulator::schedule_in(TimeDelta delay, EventHandler* handler, uint32_t tag,
                            uint64_t arg) {
  schedule_at(now_ + delay, handler, tag, arg);
}

void Simulator::schedule_fn_at(Time at, std::function<void()> fn) {
  const uint64_t id = fn_dispatcher_.next_id_++;
  fn_dispatcher_.pending_.emplace(id, std::move(fn));
  schedule_at(at, &fn_dispatcher_, 0, id);
}

void Simulator::schedule_fn_in(TimeDelta delay, std::function<void()> fn) {
  schedule_fn_at(now_ + delay, std::move(fn));
}

void Simulator::FnDispatcher::on_event(uint32_t /*tag*/, uint64_t arg) {
  auto it = pending_.find(arg);
  if (it == pending_.end()) return;
  // Move out before invoking: the callback may schedule more functions.
  auto fn = std::move(it->second);
  pending_.erase(it);
  fn();
}

void Simulator::dispatch(const Event& e) {
  // Overlap the next handler's cache miss with this event's execution. At
  // 20k flows the handler (often a Timer embedded in a flow slab) is cold;
  // a prefetch hint never faults, even if the object was since destroyed
  // (lazily cancelled timer entries), and cannot alter dispatch order.
  if (const Event* n = queue_.peek_due()) {
    __builtin_prefetch(static_cast<const void*>(n->handler));
  }
  if (auto* a = auditor()) a->on_event_dispatched(now_, e.at);
  now_ = e.at;
  if (causal_) {
    cur_armed_at_ = e.armed_at;
    cur_ctr_ = e.ctr;
  }
  ++events_processed_;
  if ((events_processed_ & (SimProfile::kPendingSampleEvery - 1)) == 0) {
    ++profile_.pending_samples;
    profile_.pending_sample_sum += queue_.size();
  }
  ++profile_.events_dispatched;
  ++profile_.events_by_tag[e.tag < SimProfile::kMaxTag ? e.tag
                                                       : SimProfile::kMaxTag];
  e.handler->on_event(e.tag, e.arg);
  if (budget_ != nullptr) enforce_budget();
}

void Simulator::enforce_budget() const {
  const SimBudget& b = *budget_;
  if (b.max_events != 0 && events_processed_ >= b.max_events) {
    throw BudgetExceeded(
        BudgetExceeded::Kind::kSimEvents,
        "simulated-event budget exceeded: " + std::to_string(events_processed_) +
            " events (ceiling " + std::to_string(b.max_events) + ")");
  }
  // The cancel token and the RSS estimate are approximate by nature;
  // polling them every 1024 events keeps the common case to one branch.
  if ((events_processed_ & 1023u) != 0) return;
  if (b.cancel != nullptr && b.cancel->load(std::memory_order_relaxed)) {
    throw BudgetExceeded(BudgetExceeded::Kind::kWallClock,
                         "cancelled: wall-clock watchdog fired at t=" +
                             std::to_string(now_.sec()) + "s after " +
                             std::to_string(events_processed_) + " events");
  }
  if (b.max_rss_bytes > 0) {
    int64_t estimate = static_cast<int64_t>(queue_.size()) *
                       SimBudget::kPendingEventRssBytes;
    if (b.extra_rss_bytes) estimate += b.extra_rss_bytes();
    if (estimate > b.max_rss_bytes) {
      throw BudgetExceeded(
          BudgetExceeded::Kind::kRssEstimate,
          "estimated RSS " + std::to_string(estimate) + " B over ceiling " +
              std::to_string(b.max_rss_bytes) + " B (" +
              std::to_string(queue_.size()) + " pending events)");
    }
  }
}

void Simulator::run() {
  stopped_ = false;
  const auto wall_start = std::chrono::steady_clock::now();
  const Time sim_start = now_;
  const uint64_t allocs_start = thread_heap_allocs();
  while (!stopped_ && !queue_.empty()) {
    dispatch(queue_.pop());
  }
  profile_.heap_allocs += thread_heap_allocs() - allocs_start;
  profile_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  profile_.sim_seconds += (now_ - sim_start).sec();
}

void Simulator::run_until_excl(Time bound) {
  stopped_ = false;
  if (queue_.empty() || queue_.top().at >= bound) {
    // Fast path: nothing due before the bound. Advancing the clock is not
    // "running", so no wall-clock accounting (the shard fabric calls this
    // once per cross-domain injection).
    if (now_ < bound) now_ = bound;
    return;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const Time sim_start = now_;
  const uint64_t allocs_start = thread_heap_allocs();
  while (!stopped_ && !queue_.empty() && queue_.top().at < bound) {
    dispatch(queue_.pop());
  }
  if (!stopped_ && now_ < bound) now_ = bound;
  profile_.heap_allocs += thread_heap_allocs() - allocs_start;
  profile_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  profile_.sim_seconds += (now_ - sim_start).sec();
}

void Simulator::run_until_before(Time at, CausalKey key) {
  stopped_ = false;
  auto before = [&](const Event& e) {
    if (e.at != at) return e.at < at;
    if (e.armed_at != key.armed_at) return e.armed_at < key.armed_at;
    return e.ctr < key.ctr;
  };
  if (queue_.empty() || !before(queue_.top())) {
    // Fast path, mirroring run_until_excl: advancing the clock is not
    // "running", so no wall-clock accounting.
    if (now_ < at) now_ = at;
    return;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const Time sim_start = now_;
  const uint64_t allocs_start = thread_heap_allocs();
  while (!stopped_ && !queue_.empty() && before(queue_.top())) {
    dispatch(queue_.pop());
  }
  if (!stopped_ && now_ < at) now_ = at;
  profile_.heap_allocs += thread_heap_allocs() - allocs_start;
  profile_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  profile_.sim_seconds += (now_ - sim_start).sec();
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  const auto wall_start = std::chrono::steady_clock::now();
  const Time sim_start = now_;
  const uint64_t allocs_start = thread_heap_allocs();
  while (!stopped_ && !queue_.empty() && queue_.top().at <= deadline) {
    dispatch(queue_.pop());
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
  profile_.heap_allocs += thread_heap_allocs() - allocs_start;
  profile_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  profile_.sim_seconds += (now_ - sim_start).sec();
}

}  // namespace ccas
