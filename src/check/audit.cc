#include "src/check/audit.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/net/impairment.h"
#include "src/net/queue.h"
#include "src/tcp/tcp_sender.h"

namespace ccas::check {

namespace {

// Sanity ceiling for cwnd: no CCA in this codebase should ever exceed a
// billion segments; anything near it is a wrapped-around or corrupted
// window.
constexpr uint64_t kCwndSanityCeiling = 1ULL << 30;

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

bool check_enabled_from_env() {
  const char* v = std::getenv("CCAS_CHECK");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

InvariantAuditor::InvariantAuditor(Simulator& sim) : sim_(sim) {
  sim_.set_auditor(this);
}

InvariantAuditor::~InvariantAuditor() { sim_.set_auditor(nullptr); }

void InvariantAuditor::register_holder(
    std::string name, std::function<void(int64_t&, int64_t&)> held) {
  holders_.push_back(PacketHolder{std::move(name), std::move(held)});
}

void InvariantAuditor::watch_sender(uint32_t flow_id, const TcpSender& sender) {
  flow_shadow(flow_id).sender = &sender;
}

void InvariantAuditor::watch_impairment(const ImpairedLink& link) {
  impairments_.push_back(&link);
}

InvariantAuditor::QueueShadow& InvariantAuditor::shadow_of(const QueueDisc& q) {
  for (QueueShadow& s : queues_) {
    if (s.queue == &q) return s;
  }
  // First sight of this queue: adopt its current occupancy as the shadow
  // baseline (components may predate the auditor in tests). Callers whose
  // hook fires after the queue already mutated must back the triggering
  // packet out of the adopted baseline themselves.
  QueueShadow s;
  s.queue = &q;
  s.packets = static_cast<int64_t>(q.queued_packets());
  s.bytes = q.queued_bytes();
  s.resident_at_reset = s.packets;
  queues_.push_back(std::move(s));
  return queues_.back();
}

bool InvariantAuditor::knows_queue(const QueueDisc& q) const {
  for (const QueueShadow& s : queues_) {
    if (s.queue == &q) return true;
  }
  return false;
}

InvariantAuditor::FlowShadow& InvariantAuditor::flow_shadow(uint32_t flow_id) {
  if (flow_id >= flows_.size()) flows_.resize(flow_id + 1);
  return flows_[flow_id];
}

void InvariantAuditor::violation(std::string invariant, uint32_t flow_id, Time at,
                                 std::string detail) {
  ++total_violations_;
  if (violations_.size() >= kMaxStoredViolations) return;
  violations_.push_back(
      Violation{std::move(invariant), flow_id, at, std::move(detail)});
}

void InvariantAuditor::on_event_dispatched(Time now, Time event_time) {
  if (event_time < now) {
    violation("event-queue.monotonic-time", kNoFlow, now,
              fmt("event scheduled at %lld ns dispatched when now=%lld ns",
                  static_cast<long long>(event_time.ns()),
                  static_cast<long long>(now.ns())));
  }
  // Periodic checkpoint: fires between events (the previous event and its
  // synchronous handoffs have fully completed), where conservation holds.
  if (check_interval_ > TimeDelta::zero() && event_time >= next_check_at_) {
    run_checks(now);
    while (next_check_at_ <= event_time) next_check_at_ += check_interval_;
  }
}

void InvariantAuditor::on_enqueue(const QueueDisc& q, const Packet& pkt,
                                  bool dropped) {
  // The hook fires after the enqueue, so a first-sight baseline must not
  // already include the packet we are about to count.
  const bool first_sight = !knows_queue(q);
  QueueShadow& s = shadow_of(q);
  if (first_sight && !dropped) {
    s.packets -= 1;
    s.bytes -= pkt.size_bytes;
    s.resident_at_reset -= 1;
  }
  if (dropped) {
    ++s.dropped_since_reset;
    ++dropped_packets_;
    dropped_bytes_ += pkt.size_bytes;
  } else {
    ++s.enqueued_since_reset;
    s.packets += 1;
    s.bytes += pkt.size_bytes;
  }
  if (s.packets != static_cast<int64_t>(q.queued_packets()) ||
      s.bytes != q.queued_bytes()) {
    violation("queue.occupancy", pkt.flow_id, sim_.now(),
              fmt("after %s: shadow %lld pkts/%lld B vs queue %zu pkts/%lld B",
                  dropped ? "drop" : "enqueue", static_cast<long long>(s.packets),
                  static_cast<long long>(s.bytes), q.queued_packets(),
                  static_cast<long long>(q.queued_bytes())));
  }
  // Over-capacity occupancy is legal only in the window a kBuffer fault
  // opened by shrinking capacity below the live occupancy (the queue only
  // refuses new arrivals until it drains back under). The qdisc tracks
  // that window explicitly, so any other over-capacity state — admitted
  // or not — is a real conservation violation, not shrink fallout.
  if (q.queued_bytes() < 0 ||
      (q.queued_bytes() > q.capacity_bytes() && !q.shrunk_below_occupancy())) {
    violation("queue.capacity", pkt.flow_id, sim_.now(),
              fmt("occupancy %lld B outside [0, %lld B]",
                  static_cast<long long>(q.queued_bytes()),
                  static_cast<long long>(q.capacity_bytes())));
  }
}

void InvariantAuditor::on_dequeue(const QueueDisc& q, const Packet& pkt) {
  // Fires after the pop: a first-sight baseline must re-include the packet
  // we are about to subtract.
  const bool first_sight = !knows_queue(q);
  QueueShadow& s = shadow_of(q);
  if (first_sight) {
    s.packets += 1;
    s.bytes += pkt.size_bytes;
    s.resident_at_reset += 1;
  }
  ++s.dequeued_since_reset;
  s.packets -= 1;
  s.bytes -= pkt.size_bytes;
  if (s.packets != static_cast<int64_t>(q.queued_packets()) ||
      s.bytes != q.queued_bytes()) {
    violation("queue.occupancy", pkt.flow_id, sim_.now(),
              fmt("after dequeue: shadow %lld pkts/%lld B vs queue %zu pkts/%lld B",
                  static_cast<long long>(s.packets), static_cast<long long>(s.bytes),
                  q.queued_packets(), static_cast<long long>(q.queued_bytes())));
  }
}

void InvariantAuditor::on_head_drop(const QueueDisc& q, const Packet& pkt) {
  // Leaves the queue like a dequeue (fires after the removal, so a
  // first-sight baseline must re-include the packet), but counts as a
  // drop for network-wide conservation.
  const bool first_sight = !knows_queue(q);
  QueueShadow& s = shadow_of(q);
  if (first_sight) {
    s.packets += 1;
    s.bytes += pkt.size_bytes;
    s.resident_at_reset += 1;
  }
  ++s.head_dropped_since_reset;
  s.packets -= 1;
  s.bytes -= pkt.size_bytes;
  ++dropped_packets_;
  dropped_bytes_ += pkt.size_bytes;
  if (s.packets != static_cast<int64_t>(q.queued_packets()) ||
      s.bytes != q.queued_bytes()) {
    violation("queue.occupancy", pkt.flow_id, sim_.now(),
              fmt("after head drop: shadow %lld pkts/%lld B vs queue %zu pkts/%lld B",
                  static_cast<long long>(s.packets), static_cast<long long>(s.bytes),
                  q.queued_packets(), static_cast<long long>(q.queued_bytes())));
  }
}

void InvariantAuditor::on_mark(const QueueDisc& q, const Packet& pkt) {
  QueueShadow& s = shadow_of(q);
  ++s.marked_since_reset;
  // A CE mark on a non-ECT packet would be silently dropped congestion
  // signal: the non-ECN endpoint never echoes it, so the qdisc believes
  // it signaled when it did not.
  if ((pkt.ecn & kEcnEct) == 0) {
    violation("qdisc.mark-without-ect", pkt.flow_id, sim_.now(),
              fmt("CE mark on packet with ecn=0x%02x (no ECT)", pkt.ecn));
  }
}

void InvariantAuditor::on_queue_reset(const QueueDisc& q) {
  QueueShadow& s = shadow_of(q);
  s.enqueued_since_reset = 0;
  s.dequeued_since_reset = 0;
  s.dropped_since_reset = 0;
  s.head_dropped_since_reset = 0;
  s.marked_since_reset = 0;
  s.resident_at_reset = static_cast<int64_t>(q.queued_packets());
}

void InvariantAuditor::on_packet_injected(const Packet& pkt) {
  ++injected_packets_;
  injected_bytes_ += pkt.size_bytes;
}

void InvariantAuditor::on_packet_delivered(const Packet& pkt) {
  ++delivered_packets_;
  delivered_bytes_ += pkt.size_bytes;
}

void InvariantAuditor::on_impairment_drop(const Packet& pkt) {
  ++impaired_drop_packets_;
  ++dropped_packets_;
  dropped_bytes_ += pkt.size_bytes;
}

void InvariantAuditor::on_impairment_duplicate(const Packet& pkt) {
  ++impaired_dup_packets_;
  ++injected_packets_;
  injected_bytes_ += pkt.size_bytes;
}

void InvariantAuditor::on_ack_processed(uint32_t flow_id, const AckEvent& ev,
                                        uint64_t cwnd, Time est_delivered_time,
                                        uint64_t est_delivered) {
  if (cwnd < 1 || cwnd > kCwndSanityCeiling) {
    violation("cca.cwnd-bounds", flow_id, ev.now,
              fmt("cwnd=%llu outside [1, 2^30]",
                  static_cast<unsigned long long>(cwnd)));
  }
  FlowShadow& s = flow_shadow(flow_id);
  if (est_delivered < s.last_delivered) {
    violation("rate.delivered-monotonic", flow_id, ev.now,
              fmt("delivered count went backwards: %llu -> %llu",
                  static_cast<unsigned long long>(s.last_delivered),
                  static_cast<unsigned long long>(est_delivered)));
  }
  if (est_delivered_time.ns() < s.last_delivered_time_ns) {
    violation("rate.delivered-time-monotonic", flow_id, ev.now,
              fmt("delivered_time went backwards: %lld ns -> %lld ns",
                  static_cast<long long>(s.last_delivered_time_ns),
                  static_cast<long long>(est_delivered_time.ns())));
  }
  s.last_delivered = est_delivered;
  s.last_delivered_time_ns = est_delivered_time.ns();
  if (ev.rate.valid()) {
    if (ev.rate.interval <= TimeDelta::zero() ||
        (!ev.min_rtt.is_infinite() && ev.rate.interval < ev.min_rtt)) {
      violation("rate.sample-interval", flow_id, ev.now,
                fmt("accepted sample with interval %lld ns < min_rtt %lld ns",
                    static_cast<long long>(ev.rate.interval.ns()),
                    static_cast<long long>(ev.min_rtt.ns())));
    }
  }
  if (ev.rtt_sample < TimeDelta::zero()) {
    violation("rtt.sample-sign", flow_id, ev.now,
              fmt("negative RTT sample %lld ns",
                  static_cast<long long>(ev.rtt_sample.ns())));
  }
}

void InvariantAuditor::on_transmit(uint32_t flow_id, bool prr_active,
                                   uint64_t prr_budget, bool prr_exempt) {
  if (prr_active && !prr_exempt && prr_budget == 0) {
    violation("prr.budget-exceeded", flow_id, sim_.now(),
              "transmission during fast recovery with zero PRR send budget");
  }
}

void InvariantAuditor::check_queue(const QueueShadow& s, Time now) {
  const QueueDisc& q = *s.queue;
  const QueueStats& st = q.stats();
  // Occupancy accounting vs the queue's own counters since the last
  // reset_accounting (the queue may have held packets across the reset,
  // so compare deltas, not absolutes).
  if (st.enqueued_packets != s.enqueued_since_reset ||
      st.dropped_packets != s.dropped_since_reset ||
      st.dequeued_packets != s.dequeued_since_reset ||
      st.head_dropped_packets != s.head_dropped_since_reset ||
      st.marked_packets != s.marked_since_reset) {
    violation("queue.stats", kNoFlow, now,
              fmt("queue stats enq/deq/drop/hdrop/mark %llu/%llu/%llu/%llu/%llu "
                  "vs audited %llu/%llu/%llu/%llu/%llu",
                  static_cast<unsigned long long>(st.enqueued_packets),
                  static_cast<unsigned long long>(st.dequeued_packets),
                  static_cast<unsigned long long>(st.dropped_packets),
                  static_cast<unsigned long long>(st.head_dropped_packets),
                  static_cast<unsigned long long>(st.marked_packets),
                  static_cast<unsigned long long>(s.enqueued_since_reset),
                  static_cast<unsigned long long>(s.dequeued_since_reset),
                  static_cast<unsigned long long>(s.dropped_since_reset),
                  static_cast<unsigned long long>(s.head_dropped_since_reset),
                  static_cast<unsigned long long>(s.marked_since_reset)));
  }
  // Conservation through mark-vs-drop: everything admitted since the last
  // reset (plus what was already resident then) either left through the
  // link, was head-dropped by the AQM, or is still resident. Marks do not
  // appear: a marked packet is still delivered.
  const uint64_t carried = static_cast<uint64_t>(s.resident_at_reset);
  if (st.enqueued_packets + carried !=
      st.dequeued_packets + st.head_dropped_packets +
          static_cast<uint64_t>(q.queued_packets())) {
    violation("queue.conservation", kNoFlow, now,
              fmt("enqueued %llu + carried %llu != dequeued %llu + "
                  "head-dropped %llu + resident %zu",
                  static_cast<unsigned long long>(st.enqueued_packets),
                  static_cast<unsigned long long>(carried),
                  static_cast<unsigned long long>(st.dequeued_packets),
                  static_cast<unsigned long long>(st.head_dropped_packets),
                  q.queued_packets()));
  }
  const uint64_t total_drops = st.dropped_packets + st.head_dropped_packets;
  if (q.drop_log_enabled() &&
      q.drop_log().size() != static_cast<size_t>(total_drops)) {
    violation("queue.drop-log", kNoFlow, now,
              fmt("drop log has %zu records but %llu drops counted",
                  q.drop_log().size(),
                  static_cast<unsigned long long>(total_drops)));
  }
  uint64_t per_flow_total = 0;
  for (const uint64_t d : q.per_flow_drops()) per_flow_total += d;
  // <= because flows beyond reserve_flows() are not counted per flow.
  if (per_flow_total > total_drops) {
    violation("queue.per-flow-drops", kNoFlow, now,
              fmt("per-flow drop counters sum to %llu > %llu total drops",
                  static_cast<unsigned long long>(per_flow_total),
                  static_cast<unsigned long long>(total_drops)));
  }
  uint64_t per_flow_marks = 0;
  for (const uint64_t m : q.per_flow_marks()) per_flow_marks += m;
  if (per_flow_marks > st.marked_packets) {
    violation("queue.per-flow-marks", kNoFlow, now,
              fmt("per-flow mark counters sum to %llu > %llu total marks",
                  static_cast<unsigned long long>(per_flow_marks),
                  static_cast<unsigned long long>(st.marked_packets)));
  }
  // Sojourn samples only come from dequeues that timestamped the packet.
  if (st.sojourn_samples > st.dequeued_packets) {
    violation("queue.sojourn-samples", kNoFlow, now,
              fmt("%llu sojourn samples from %llu dequeues",
                  static_cast<unsigned long long>(st.sojourn_samples),
                  static_cast<unsigned long long>(st.dequeued_packets)));
  }
}

void InvariantAuditor::check_sender(uint32_t flow_id, const TcpSender& sender,
                                    Time now) {
  const SackScoreboard& sb = sender.scoreboard();
  uint64_t outstanding = 0;
  uint64_t sacked = 0;
  uint64_t lost = 0;
  for (uint64_t s = sb.snd_una(); s < sb.snd_nxt(); ++s) {
    const SegmentState& st = sb.seg(s);
    if (st.outstanding) ++outstanding;
    if (st.sacked) ++sacked;
    if (st.lost) ++lost;
  }
  // Without SACK, each dupack deflates pipe by one (RFC 5681 expressed as
  // pipe deflation) without clearing any segment's outstanding flag, so
  // pipe may legitimately run below the scoreboard's outstanding count —
  // but never above it.
  const bool exact = sender.config().sack_enabled;
  if (exact ? outstanding != sender.inflight()
            : sender.inflight() > outstanding) {
    violation("sender.pipe-vs-scoreboard", flow_id, now,
              fmt("pipe=%llu but %llu segments outstanding in [%llu, %llu) "
                  "(sacked=%llu lost=%llu recovery=%d)",
                  static_cast<unsigned long long>(sender.inflight()),
                  static_cast<unsigned long long>(outstanding),
                  static_cast<unsigned long long>(sb.snd_una()),
                  static_cast<unsigned long long>(sb.snd_nxt()),
                  static_cast<unsigned long long>(sacked),
                  static_cast<unsigned long long>(lost),
                  sender.in_recovery() ? 1 : 0));
  }
  if (sacked != sb.sacked_count() || lost != sb.lost_count()) {
    violation("sender.scoreboard-counters", flow_id, now,
              fmt("recount sacked=%llu lost=%llu vs counters %llu/%llu",
                  static_cast<unsigned long long>(sacked),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(sb.sacked_count()),
                  static_cast<unsigned long long>(sb.lost_count())));
  }
  const uint64_t cwnd = sender.cca().cwnd();
  if (cwnd < 1 || cwnd > kCwndSanityCeiling) {
    violation("cca.cwnd-bounds", flow_id, now,
              fmt("cwnd=%llu outside [1, 2^30]",
                  static_cast<unsigned long long>(cwnd)));
  }
  if (sender.inflight() > sb.window_size()) {
    violation("sender.pipe-vs-window", flow_id, now,
              fmt("pipe=%llu exceeds window of %zu unacked segments",
                  static_cast<unsigned long long>(sender.inflight()),
                  sb.window_size()));
  }
}

void InvariantAuditor::run_checks(Time now) {
  ++checks_run_;

  // Conservation: every injected packet is delivered, dropped, or held by
  // some component. Valid at event boundaries (the checkpoint runs as its
  // own event, so no packet is mid-handoff on the call stack).
  int64_t held_packets = 0;
  int64_t held_bytes = 0;
  for (const QueueShadow& s : queues_) {
    held_packets += static_cast<int64_t>(s.queue->queued_packets());
    held_bytes += s.queue->queued_bytes();
  }
  for (const PacketHolder& h : holders_) h.held(held_packets, held_bytes);
  if (injected_packets_ != delivered_packets_ + dropped_packets_ + held_packets ||
      injected_bytes_ != delivered_bytes_ + dropped_bytes_ + held_bytes) {
    violation(
        "conservation", kNoFlow, now,
        fmt("injected %lld pkts/%lld B != delivered %lld/%lld + dropped "
            "%lld/%lld + in-flight %lld/%lld",
            static_cast<long long>(injected_packets_),
            static_cast<long long>(injected_bytes_),
            static_cast<long long>(delivered_packets_),
            static_cast<long long>(delivered_bytes_),
            static_cast<long long>(dropped_packets_),
            static_cast<long long>(dropped_bytes_),
            static_cast<long long>(held_packets),
            static_cast<long long>(held_bytes)));
  }

  for (const QueueShadow& s : queues_) check_queue(s, now);
  for (uint32_t id = 0; id < flows_.size(); ++id) {
    if (flows_[id].sender != nullptr) check_sender(id, *flows_[id].sender, now);
  }
  check_impairments(now);
}

void InvariantAuditor::check_impairments(Time now) {
  uint64_t stage_drops = 0;
  uint64_t stage_dups = 0;
  for (const ImpairedLink* link : impairments_) {
    const ImpairmentStats& st = link->stats();
    stage_drops += st.dropped_total();
    stage_dups += st.duplicated;
    // Internal stage conservation: every packet accepted (plus every copy
    // created) was delivered downstream, dropped, or is still held for a
    // reorder/jitter delay.
    if (st.processed + st.duplicated !=
        st.delivered + st.dropped_total() + link->in_transit()) {
      violation("impairment.stage-conservation", kNoFlow, now,
                fmt("processed %llu + dup %llu != delivered %llu + dropped "
                    "%llu + held %zu",
                    static_cast<unsigned long long>(st.processed),
                    static_cast<unsigned long long>(st.duplicated),
                    static_cast<unsigned long long>(st.delivered),
                    static_cast<unsigned long long>(st.dropped_total()),
                    link->in_transit()));
    }
  }
  // The hook-side shadow must agree with the stages' own counters: a
  // mismatch means a drop or duplication happened without its hook (or
  // vice versa) and flow-level conservation can no longer be trusted.
  if (stage_drops != impaired_drop_packets_ || stage_dups != impaired_dup_packets_) {
    violation("impairment.hook-reconciliation", kNoFlow, now,
              fmt("stage counters drops=%llu dups=%llu vs hook shadow "
                  "drops=%llu dups=%llu",
                  static_cast<unsigned long long>(stage_drops),
                  static_cast<unsigned long long>(stage_dups),
                  static_cast<unsigned long long>(impaired_drop_packets_),
                  static_cast<unsigned long long>(impaired_dup_packets_)));
  }
}

void InvariantAuditor::schedule_periodic(TimeDelta interval) {
  check_interval_ = interval;
  next_check_at_ = sim_.now() + interval;
}

std::string InvariantAuditor::report(size_t max_lines) const {
  if (total_violations_ == 0) return "invariant audit: clean";
  std::string out = fmt("invariant audit: %llu violation(s)\n",
                        static_cast<unsigned long long>(total_violations_));
  size_t shown = 0;
  for (const Violation& v : violations_) {
    if (shown++ >= max_lines) {
      out += fmt("  ... and %llu more\n",
                 static_cast<unsigned long long>(total_violations_ - shown + 1));
      break;
    }
    if (v.flow_id == kNoFlow) {
      out += fmt("  [%s] t=%.6fs %s\n", v.invariant.c_str(), v.at.sec(),
                 v.detail.c_str());
    } else {
      out += fmt("  [%s] flow=%u t=%.6fs %s\n", v.invariant.c_str(), v.flow_id,
                 v.at.sec(), v.detail.c_str());
    }
  }
  return out;
}

}  // namespace ccas::check
