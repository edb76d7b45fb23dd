#include "src/sim/parallel/fabric.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace ccas {

WorkerPool::WorkerPool(int workers) {
  if (workers <= 0) throw std::invalid_argument("WorkerPool needs >= 1 worker");
  errors_.resize(static_cast<size_t>(workers));
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::worker_main(int index) {
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int)>* fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      fn = fn_;
    }
    std::exception_ptr err;
    try {
      (*fn)(index);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[static_cast<size_t>(index)] = err;
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void WorkerPool::run(const std::function<void(int)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    remaining_ = static_cast<int>(threads_.size());
    ++epoch_;
  }
  cv_work_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return remaining_ == 0; });
  // Rethrow the lowest-index failure so repeated runs fail the same way
  // regardless of which worker happened to finish first.
  for (std::exception_ptr& err : errors_) {
    if (err) {
      std::exception_ptr e = std::move(err);
      for (std::exception_ptr& rest : errors_) rest = nullptr;
      std::rethrow_exception(e);
    }
  }
}

ShardFabric::ShardFabric(Simulator& core, const ShardPlan& plan,
                         TimeDelta lookahead)
    : core_(core), plan_(plan), pool_(plan.shards) {
  if (plan.shards < 1) throw std::invalid_argument("ShardFabric: shards < 1");
  if (lookahead < TimeDelta::nanos(2)) {
    throw std::invalid_argument(
        "ShardFabric: lookahead below 2ns cannot form a conservative window");
  }
  win_ = lookahead - TimeDelta::nanos(1);
  domains_.reserve(static_cast<size_t>(plan.shards));
  // Exchange buffers (gate captures, core->edge staging, the merge
  // scratch) are drained with clear() every window, so their capacity is
  // the high-water mark and is reused for the rest of the run. Seed that
  // capacity proportional to the sharded flow population up front: a few
  // in-flight packets per flow covers typical windows, and warm-up growth
  // (before any measurement window) absorbs the tail.
  const size_t per_domain =
      static_cast<size_t>(plan.sharded_flows) /
          static_cast<size_t>(plan.shards > 0 ? plan.shards : 1) * 4 + 256;
  for (int d = 0; d < plan.shards; ++d) {
    domains_.push_back(std::make_unique<Domain>());
    domains_.back()->ingress.reserve(per_domain);
    domains_.back()->staging.reserve(per_domain);
  }
  core_data_entries_.reserve(plan.sharded_flows);
  merged_.reserve(static_cast<size_t>(plan.sharded_flows) * 4 + 1024);
  // Causal keys reconstruct the serial same-nanosecond dispatch order
  // across engines (event.h). Topology construction precedes the fabric,
  // so its setup pushes carry zero keys and sort first — exactly their
  // serial (earliest-seq) position.
  core_.enable_causal_keys();
  core_.share_setup_counter(&setup_major_);
  for (auto& dom : domains_) {
    dom->sim.enable_causal_keys();
    dom->sim.share_setup_counter(&setup_major_);
  }
}

ShardFabric::~ShardFabric() {
  // Uninstall the per-sim cancellation budgets before the sims die.
  if (budget_ != nullptr) {
    core_.set_budget(nullptr);
    for (auto& dom : domains_) dom->sim.set_budget(nullptr);
  }
}

void ShardFabric::set_core_data_entry(uint32_t flow_id, PacketSink* entry) {
  if (flow_id >= core_data_entries_.size()) {
    core_data_entries_.resize(flow_id + 1, nullptr);
  }
  core_data_entries_[flow_id] = entry;
}

bool ShardFabric::offload(uint32_t flow_id, Time deliver_at, Packet&& pkt) {
  const int d = plan_.domain_of(flow_id);
  if (d == ShardPlan::kCore) return false;
  // Consume a core push slot exactly where the serial netem would have
  // pushed its release event; the delivery stage schedules the domain
  // event with this key, preserving its serial same-ns position.
  domains_[static_cast<size_t>(d)]->staging.push_back(
      HandoffEntry{deliver_at, core_.allocate_push_key(), std::move(pkt)});
  return true;
}

void ShardFabric::set_budget(const SimBudget* budget) {
  budget_ = (budget != nullptr && budget->any()) ? budget : nullptr;
  // Event and RSS ceilings are enforced at barriers on summed counts; only
  // the cancellation token is worth polling inside a window.
  cancel_only_ = SimBudget{};
  cancel_only_.cancel = budget_ != nullptr ? budget_->cancel : nullptr;
  const SimBudget* per_sim =
      cancel_only_.cancel != nullptr ? &cancel_only_ : nullptr;
  core_.set_budget(per_sim);
  for (auto& dom : domains_) dom->sim.set_budget(per_sim);
}

uint64_t ShardFabric::total_events() const {
  uint64_t total = core_.events_processed();
  for (const auto& dom : domains_) total += dom->sim.events_processed();
  return total;
}

void ShardFabric::enforce_budget_at_barrier() const {
  if (budget_ == nullptr) return;
  const SimBudget& b = *budget_;
  const uint64_t events = total_events();
  if (b.max_events != 0 && events >= b.max_events) {
    throw BudgetExceeded(
        BudgetExceeded::Kind::kSimEvents,
        "simulated-event budget exceeded: " + std::to_string(events) +
            " events (ceiling " + std::to_string(b.max_events) + ")");
  }
  if (b.cancel != nullptr && b.cancel->load(std::memory_order_relaxed)) {
    throw BudgetExceeded(BudgetExceeded::Kind::kWallClock,
                         "cancelled: wall-clock watchdog fired at t=" +
                             std::to_string(now_.sec()) + "s after " +
                             std::to_string(events) + " events");
  }
  if (b.max_rss_bytes > 0) {
    int64_t pending = static_cast<int64_t>(core_.pending_events());
    for (const auto& dom : domains_) {
      pending += static_cast<int64_t>(dom->sim.pending_events());
    }
    int64_t estimate = pending * SimBudget::kPendingEventRssBytes;
    if (b.extra_rss_bytes) estimate += b.extra_rss_bytes();
    if (estimate > b.max_rss_bytes) {
      throw BudgetExceeded(
          BudgetExceeded::Kind::kRssEstimate,
          "estimated RSS " + std::to_string(estimate) + " B over ceiling " +
              std::to_string(b.max_rss_bytes) + " B (" +
              std::to_string(pending) + " pending events)");
    }
  }
}

void ShardFabric::run_to(Time target) {
  using clock = std::chrono::steady_clock;
  if (target < now_) throw std::invalid_argument("ShardFabric: target in the past");
  if (!counters_detached_) {
    // Setup is over: each engine continues from the shared slot counter's
    // final value on its own copy (run-phase pushes sort after every
    // setup push of the same nanosecond, as they did serially).
    core_.unshare_setup_counter();
    for (auto& dom : domains_) dom->sim.unshare_setup_counter();
    counters_detached_ = true;
  }
  const auto fabric_start = clock::now();
  // do-while: even with now_ == target, one inclusive pass runs — the
  // serial run_until(t) with now == t still processes events at t, and
  // harness sync points (warmup_end with zero stagger+warmup) rely on it.
  do {
    Time bound = now_ + win_;
    const bool final_step = bound >= target;
    if (final_step) bound = target;

    // Phase 1: edge domains in parallel. Interior windows are half-open;
    // the final window is inclusive so the caller observes exactly the
    // state a serial run_until(target) would leave behind. That is sound
    // because no pending handoff can be due at or before `target`: every
    // handoff staged so far has deliver_at > the barrier it was staged at.
    const auto edge_start = clock::now();
    pool_.run([this, bound, final_step](int d) {
      Simulator& s = domains_[static_cast<size_t>(d)]->sim;
      if (final_step) {
        s.run_until(bound);
      } else {
        s.run_until_excl(bound);
      }
    });
    edge_wall_seconds_ +=
        std::chrono::duration<double>(clock::now() - edge_start).count();

    // Phase 2: merge the window's endpoint emissions into replay order.
    merged_.clear();
    for (auto& dom : domains_) {
      merged_.insert(merged_.end(),
                     std::make_move_iterator(dom->ingress.begin()),
                     std::make_move_iterator(dom->ingress.end()));
      dom->ingress.clear();
    }
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const IngressEntry& a, const IngressEntry& b) {
                       if (a.at != b.at) return a.at < b.at;
                       if (a.root.armed_at != b.root.armed_at) {
                         return a.root.armed_at < b.root.armed_at;
                       }
                       if (a.root.ctr != b.root.ctr) return a.root.ctr < b.root.ctr;
                       return a.flow_id < b.flow_id;
                     });

    // Phase 3: core, with injections interleaved — each takes, among the
    // core's same-timestamp events, exactly the position the serial FIFO
    // gave its root event (the causal key ordering of event.h). Pushes
    // made by an injection's synchronous send chain allocate plain core
    // slots: injections interleave with core dispatches in serial order,
    // so those slots are consumed in serial relative order as well.
    const auto core_start = clock::now();
    for (IngressEntry& e : merged_) {
      core_.run_until_before(e.at, e.root);
      PacketSink* entry = e.is_data ? core_data_entries_[e.flow_id] : core_ack_entry_;
      entry->accept(std::move(e.pkt));
    }
    if (final_step) {
      core_.run_until(bound);
    } else {
      core_.run_until_excl(bound);
    }
    core_wall_seconds_ +=
        std::chrono::duration<double>(clock::now() - core_start).count();

    // Phase 4 (barrier): hand the staged releases to their domains, in
    // staging order == netem accept order.
    for (auto& dom : domains_) {
      for (HandoffEntry& h : dom->staging) {
        dom->delivery.deliver_at(h.deliver_at, h.key, std::move(h.pkt));
      }
      dom->staging.clear();
    }
    now_ = bound;
    ++windows_run_;
    enforce_budget_at_barrier();
  } while (now_ < target);
  fabric_wall_seconds_ +=
      std::chrono::duration<double>(clock::now() - fabric_start).count();
}

SimProfile ShardFabric::aggregate_profile() const {
  SimProfile agg = core_.profile();
  for (const auto& dom : domains_) {
    const SimProfile& p = dom->sim.profile();
    agg.events_dispatched += p.events_dispatched;
    for (size_t t = 0; t < agg.events_by_tag.size(); ++t) {
      agg.events_by_tag[t] += p.events_by_tag[t];
    }
    agg.pushes_due += p.pushes_due;
    agg.pushes_wheel += p.pushes_wheel;
    agg.pushes_overflow += p.pushes_overflow;
    agg.wheel_cascades += p.wheel_cascades;
    agg.overflow_drains += p.overflow_drains;
    agg.pending_max = std::max(agg.pending_max, p.pending_max);
    agg.pending_samples += p.pending_samples;
    agg.pending_sample_sum += p.pending_sample_sum;
    agg.timer_stale_wakeups += p.timer_stale_wakeups;
    agg.timer_chase_wakeups += p.timer_chase_wakeups;
    agg.timer_coalesced_rearms += p.timer_coalesced_rearms;
    agg.impair_drops += p.impair_drops;
    agg.impair_dups += p.impair_dups;
    agg.impair_delays += p.impair_delays;
    agg.qdisc_head_drops += p.qdisc_head_drops;
    agg.qdisc_marks += p.qdisc_marks;
    agg.heap_allocs += p.heap_allocs;
  }
  // Per-sim wall clocks overlap across threads; the honest number for
  // events/s is the fabric's own end-to-end clock.
  agg.wall_seconds = fabric_wall_seconds_;
  agg.sim_seconds = (now_ - Time::zero()).sec();
  agg.shard_domains = static_cast<uint64_t>(plan_.shards);
  agg.shard_windows = windows_run_;
  agg.shard_core_wall_seconds = core_wall_seconds_;
  agg.shard_edge_wall_seconds = edge_wall_seconds_;
  return agg;
}

}  // namespace ccas
