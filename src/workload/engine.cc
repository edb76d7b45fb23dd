#include "src/workload/engine.h"

#include <cmath>
#include <utility>

namespace ccas {

namespace {

constexpr uint32_t kTagArrival = 0;
constexpr uint32_t kTagReap = 1;
constexpr uint32_t kTagAppTimer = 2;

// App-timer events address a (slot, generation) pair packed into the event
// arg: a reused slot bumps the generation, so timers armed for the
// previous occupant are recognized as stale and ignored.
[[nodiscard]] uint64_t pack_timer(uint32_t gen, uint32_t si) {
  return (static_cast<uint64_t>(gen) << 32) | si;
}

}  // namespace

TimeDelta workload_reap_grace(const DumbbellConfig& net, TimeDelta max_rtt) {
  // Two max-RTTs plus twice the worst-case queue drain plus every
  // configured jitter/reorder hold, with flat slack dominating the
  // delack/GRO timeouts. Lazily-cancelled timer entries can
  // outlive any grace; the reaper re-checks them and defers past the last.
  TimeDelta drain = TimeDelta::zero();
  if (!net.bottleneck_rate.is_infinite()) {
    drain = TimeDelta::seconds_f(
        static_cast<double>(net.buffer_bytes) * 8.0 /
        static_cast<double>(net.bottleneck_rate.bits_per_sec()));
  }
  if (!net.edge_rate.is_infinite()) {
    drain = drain + TimeDelta::seconds_f(
                        static_cast<double>(net.edge_buffer_bytes) * 8.0 /
                        static_cast<double>(net.edge_rate.bits_per_sec()));
  }
  const TimeDelta holds = net.jitter + net.jitter + net.impairments.jitter +
                          net.impairments.jitter +
                          net.impairments.reorder_delay;
  return max_rtt + max_rtt + drain + drain + holds + TimeDelta::millis(200);
}

WorkloadEngine::WorkloadEngine(Simulator& sim, DumbbellTopology& topo,
                               FlowTable& table, const WorkloadSpec& spec,
                               const TcpSenderConfig& tcp,
                               const TcpReceiverConfig& receiver,
                               DataRate bottleneck_rate,
                               uint32_t first_flow_id, Time end_time,
                               TimeDelta grace, uint64_t seed)
    : sim_(sim),
      topo_(topo),
      table_(table),
      spec_(spec),
      tcp_(tcp),
      receiver_(receiver),
      bottleneck_rate_(bottleneck_rate),
      end_time_(end_time),
      grace_(grace),
      rng_(seed),
      next_flow_id_(first_flow_id) {
  cum_weight_.reserve(spec.classes.size());
  double sum = 0.0;
  for (const WorkloadClass& c : spec.classes) {
    sum += c.weight;
    cum_weight_.push_back(sum);
  }
  if (!cum_weight_.empty()) cum_weight_.back() = 1.0;
  recorders_.resize(spec.classes.size());
  for (FctRecorder& r : recorders_) r.reserve(512);
  states_.reserve(256);
  free_states_.reserve(256);
}

void WorkloadEngine::begin() {
  if (spec_.arrivals_per_sec > 0.0) {
    sim_.schedule_at(Time::zero(), this, kTagArrival, 0);
  }
}

void WorkloadEngine::on_event(uint32_t tag, uint64_t arg) {
  switch (tag) {
    case kTagArrival:
      on_arrival();
      break;
    case kTagReap:
      on_reap(static_cast<uint32_t>(arg));
      break;
    default:
      on_app_timer(static_cast<uint32_t>(arg >> 32),
                   static_cast<uint32_t>(arg));
      break;
  }
}

uint32_t WorkloadEngine::pick_class() {
  const double u = rng_.next_double();
  for (size_t i = 0; i + 1 < cum_weight_.size(); ++i) {
    if (u < cum_weight_[i]) return static_cast<uint32_t>(i);
  }
  return static_cast<uint32_t>(cum_weight_.size() - 1);
}

double WorkloadEngine::ideal_fct_s(const WorkloadClass& cls,
                                   uint64_t segments) const {
  // One RTT plus the transfer's serialization time at the bottleneck, plus
  // the pacing model's floor (an app-limited flow cannot beat its own
  // release schedule: bursts - 1 gaps; for request-response that gap is
  // the mean think time, making slowdown an average-case ratio).
  double s = cls.rtt.sec();
  if (!bottleneck_rate_.is_infinite()) {
    s += static_cast<double>(segments) * static_cast<double>(kDataPacketBytes) *
         8.0 / static_cast<double>(bottleneck_rate_.bits_per_sec());
  }
  if (cls.app != AppModel::kBulk && cls.app_burst_segments > 0) {
    const uint64_t bursts =
        (segments + cls.app_burst_segments - 1) / cls.app_burst_segments;
    if (bursts > 1) s += static_cast<double>(bursts - 1) * cls.app_gap.sec();
  }
  return s;
}

void WorkloadEngine::on_arrival() {
  if (sim_.now() >= end_time_) return;
  // Dedicated-RNG draw order per arrival: class pick, then (when admitted)
  // fork + size, then at the bottom the next gap — fixed, so replay is
  // byte-identical per seed.
  const uint32_t ci = pick_class();
  const WorkloadClass& cls = spec_.classes[ci];
  recorders_[ci].on_arrival();
  if (spec_.max_concurrent > 0 && active_ >= spec_.max_concurrent) {
    ++rejected_;
    recorders_[ci].on_reject();
  } else {
    Rng flow_rng = rng_.fork();
    const uint32_t id = next_flow_id_++;
    const uint64_t size = cls.size.sample(rng_);
    uint32_t si;
    if (!free_states_.empty()) {
      si = free_states_.back();
      free_states_.pop_back();
    } else {
      si = static_cast<uint32_t>(states_.size());
      states_.emplace_back();
    }
    State& st = states_[si];
    TcpSenderConfig cfg = tcp_;
    cfg.data_segments = size;
    st.slot = table_.create(sim_, id, std::move(flow_rng), cls.cca,
                            &topo_.data_entry(id), &topo_.ack_entry(), cfg,
                            receiver_);
    st.started = sim_.now();
    st.size = size;
    st.flow_id = id;
    st.cls = ci;
    st.live = true;
    st.completed = false;
    topo_.register_flow(id, cls.rtt, st.slot.sender, st.slot.receiver);
    // Two-word captures fit std::function's inline storage: no heap.
    st.slot.sender->set_completion_callback([this, si] { on_complete(si); });
    switch (cls.app) {
      case AppModel::kBulk:
        break;
      case AppModel::kRequestResponse:
      case AppModel::kWebObject:
        st.slot.sender->enable_app_gate(cls.app_burst_segments);
        st.slot.sender->set_app_drained_callback(
            [this, si] { on_app_drained(si); });
        break;
      case AppModel::kVideoChunk:
        // Open-loop chunk schedule: the first chunk goes out at start, the
        // next every app_gap regardless of delivery progress.
        st.slot.sender->enable_app_gate(cls.app_burst_segments);
        sim_.schedule_at(sim_.now() + cls.app_gap, this, kTagAppTimer,
                         pack_timer(st.gen, si));
        break;
    }
    ++active_;
    ++started_;
    st.slot.sender->start();
  }
  double gap;
  if (spec_.arrival == ArrivalKind::kPoisson) {
    gap = -std::log(1.0 - rng_.next_double()) / spec_.arrivals_per_sec;
  } else {
    gap = 1.0 / spec_.arrivals_per_sec;
  }
  const Time next = sim_.now() + TimeDelta::seconds_f(gap);
  if (next < end_time_) sim_.schedule_at(next, this, kTagArrival, 0);
}

void WorkloadEngine::on_complete(uint32_t si) {
  State& st = states_[si];
  if (st.completed) return;
  st.completed = true;
  --active_;
  ++completed_;
  const WorkloadClass& cls = spec_.classes[st.cls];
  const double fct = (sim_.now() - st.started).sec();
  recorders_[st.cls].on_complete(fct, ideal_fct_s(cls, st.size), st.size);
  sim_.schedule_at(sim_.now() + grace_, this, kTagReap, si);
}

void WorkloadEngine::on_app_drained(uint32_t si) {
  State& st = states_[si];
  if (!st.live || st.completed) return;
  const WorkloadClass& cls = spec_.classes[st.cls];
  TimeDelta delay = cls.app_gap;  // kWebObject: fixed inter-object gap
  if (cls.app == AppModel::kRequestResponse) {
    // Exponential think time from the flow's own rng, so arrival/size
    // draws on the engine stream stay independent of app pacing.
    delay = TimeDelta::seconds_f(-std::log(1.0 - st.slot.rng->next_double()) *
                                 cls.app_gap.sec());
  }
  sim_.schedule_at(sim_.now() + delay, this, kTagAppTimer,
                   pack_timer(st.gen, si));
}

void WorkloadEngine::on_app_timer(uint32_t gen, uint32_t si) {
  State& st = states_[si];
  if (st.gen != gen || !st.live || st.completed) return;
  const WorkloadClass& cls = spec_.classes[st.cls];
  st.slot.sender->app_release(cls.app_burst_segments);
  if (cls.app == AppModel::kVideoChunk &&
      st.slot.sender->app_limit() < st.size) {
    sim_.schedule_at(sim_.now() + cls.app_gap, this, kTagAppTimer,
                     pack_timer(st.gen, si));
  }
}

void WorkloadEngine::on_reap(uint32_t si) {
  State& st = states_[si];
  // Lazily-cancelled timer entries still hold pointers into the slot; park
  // the reap just past the last one (it may re-arm — re-check).
  const Time s = st.slot.sender->latest_timer_entry();
  const Time r = st.slot.receiver->latest_timer_entry();
  const Time pending = s > r ? s : r;
  if (pending > Time::zero()) {
    const Time at =
        (pending > sim_.now() ? pending : sim_.now()) + TimeDelta::nanos(1);
    sim_.schedule_at(at, this, kTagReap, si);
    return;
  }
  reaped_goodput_bytes_ += st.slot.receiver->goodput_bytes();
  topo_.unregister_flow(st.flow_id);
  table_.recycle(st.slot);
  st.live = false;
  ++st.gen;  // invalidate any pending app timers for this slot
  free_states_.push_back(si);
}

void WorkloadEngine::finalize(std::vector<WorkloadClassResult>& out) {
  for (const State& st : states_) {
    if (st.live && !st.completed) recorders_[st.cls].on_abandon();
  }
  out.reserve(out.size() + spec_.classes.size());
  for (size_t i = 0; i < spec_.classes.size(); ++i) {
    out.push_back(
        recorders_[i].summarize(spec_.classes[i].name, spec_.classes[i].cca));
  }
}

int64_t WorkloadEngine::goodput_bytes() const {
  int64_t total = reaped_goodput_bytes_;
  for (const State& st : states_) {
    if (st.live) total += st.slot.receiver->goodput_bytes();
  }
  return total;
}

}  // namespace ccas
