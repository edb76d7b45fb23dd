#include "src/sweep/spec_hash.h"

#include <cstdio>

#include "src/sweep/wire.h"

namespace ccas::sweep {

namespace {

// Field tags keep the encoding self-delimiting: reordering or removing a
// field changes the byte stream even if the raw values happen to align.
void tagged_i64(std::string& out, std::string_view tag, int64_t v) {
  put_string(out, tag);
  put_i64(out, v);
}

void tagged_u64(std::string& out, std::string_view tag, uint64_t v) {
  put_string(out, tag);
  put_u64(out, v);
}

void tagged_bool(std::string& out, std::string_view tag, bool v) {
  put_string(out, tag);
  put_bool(out, v);
}

void tagged_double(std::string& out, std::string_view tag, double v) {
  put_string(out, tag);
  put_double(out, v);
}

void tagged_string(std::string& out, std::string_view tag, std::string_view v) {
  put_string(out, tag);
  put_string(out, v);
}

}  // namespace

std::string canonical_spec_bytes(const ExperimentSpec& spec) {
  std::string out;
  out.reserve(512);

  const Scenario& sc = spec.scenario;
  tagged_i64(out, "setting", static_cast<int64_t>(sc.setting));
  tagged_i64(out, "net.rate_bps", sc.net.bottleneck_rate.bits_per_sec());
  tagged_i64(out, "net.buffer", sc.net.buffer_bytes);
  tagged_i64(out, "net.pairs", sc.net.num_pairs);
  tagged_i64(out, "net.edge_rate_bps", sc.net.edge_rate.bits_per_sec());
  tagged_i64(out, "net.edge_buffer", sc.net.edge_buffer_bytes);
  tagged_i64(out, "net.jitter_ns", sc.net.jitter.ns());
  tagged_u64(out, "net.jitter_seed", sc.net.jitter_seed);
  // Appended only when the impairment stage is active, so every
  // pre-impairment spec keeps its historical byte encoding, cache keys and
  // golden digests. force_stage is deliberately NOT encoded: an inert
  // stage never alters behaviour (like spec.audit).
  const ImpairmentConfig& imp = sc.net.impairments;
  if (imp.enabled()) {
    tagged_double(out, "imp.loss", imp.loss);
    tagged_double(out, "imp.ge.p_gb", imp.ge.p_good_to_bad);
    tagged_double(out, "imp.ge.p_bg", imp.ge.p_bad_to_good);
    tagged_double(out, "imp.ge.loss_bad", imp.ge.loss_bad);
    tagged_double(out, "imp.ge.loss_good", imp.ge.loss_good);
    tagged_double(out, "imp.dup", imp.duplicate);
    tagged_double(out, "imp.reorder", imp.reorder);
    tagged_i64(out, "imp.reorder_delay_ns", imp.reorder_delay.ns());
    tagged_i64(out, "imp.jitter_ns", imp.jitter.ns());
    tagged_i64(out, "imp.jitter_dist", static_cast<int64_t>(imp.jitter_dist));
    tagged_u64(out, "imp.seed", imp.seed);
    tagged_u64(out, "imp.faults", imp.faults.size());
    for (const LinkFault& f : imp.faults) {
      tagged_i64(out, "imp.f.at_ns", f.at.ns());
      tagged_i64(out, "imp.f.kind", static_cast<int64_t>(f.kind));
      tagged_i64(out, "imp.f.rate_bps", f.rate.bits_per_sec());
      tagged_i64(out, "imp.f.buffer", f.buffer_bytes);
    }
  }
  // Same append-only pattern for the qdisc block: drop-tail (the default)
  // encodes nothing, so every pre-qdisc spec keeps its historical byte
  // encoding, cache keys and golden digests.
  const QdiscConfig& qd = sc.net.qdisc;
  if (qd.enabled()) {
    tagged_string(out, "qd.kind", qdisc_kind_name(qd.kind));
    tagged_bool(out, "qd.ecn", qd.ecn);
    tagged_i64(out, "qd.codel_target_ns", qd.codel_target.ns());
    tagged_i64(out, "qd.codel_interval_ns", qd.codel_interval.ns());
    tagged_u64(out, "qd.fq_flows", qd.fq_flows);
    tagged_i64(out, "qd.fq_quantum", qd.fq_quantum);
    tagged_i64(out, "qd.pie_target_ns", qd.pie_target.ns());
    tagged_i64(out, "qd.pie_tupdate_ns", qd.pie_tupdate.ns());
    tagged_double(out, "qd.pie_alpha", qd.pie_alpha);
    tagged_double(out, "qd.pie_beta", qd.pie_beta);
    tagged_double(out, "qd.pie_mark_ecnth", qd.pie_mark_ecnth);
    tagged_double(out, "qd.red_wq", qd.red_wq);
    tagged_i64(out, "qd.red_min", qd.red_min_bytes);
    tagged_i64(out, "qd.red_max", qd.red_max_bytes);
    tagged_double(out, "qd.red_max_p", qd.red_max_p);
    tagged_bool(out, "qd.red_gentle", qd.red_gentle);
    tagged_u64(out, "qd.seed", qd.seed);
  }
  tagged_i64(out, "stagger_ns", sc.stagger.ns());
  tagged_i64(out, "warmup_ns", sc.warmup.ns());
  tagged_i64(out, "measure_ns", sc.measure.ns());

  tagged_u64(out, "groups", spec.groups.size());
  for (const FlowGroup& g : spec.groups) {
    tagged_string(out, "g.cca", g.cca);
    tagged_i64(out, "g.count", g.count);
    tagged_i64(out, "g.rtt_ns", g.rtt.ns());
  }

  tagged_u64(out, "seed", spec.seed);

  tagged_u64(out, "tcp.iw", spec.tcp.initial_cwnd);
  tagged_u64(out, "tcp.max_window", spec.tcp.max_window);
  tagged_u64(out, "tcp.dup_thresh", spec.tcp.dup_thresh);
  tagged_bool(out, "tcp.sack", spec.tcp.sack_enabled);
  tagged_u64(out, "tcp.data_segments", spec.tcp.data_segments);
  tagged_i64(out, "tcp.min_rto_ns", spec.tcp.rtt.min_rto.ns());
  tagged_i64(out, "tcp.max_rto_ns", spec.tcp.rtt.max_rto.ns());
  tagged_i64(out, "tcp.initial_rto_ns", spec.tcp.rtt.initial_rto.ns());
  // Appended conditionally so every pre-existing spec (slack disabled)
  // keeps its historical byte encoding, cache keys and golden digests.
  if (spec.tcp.rto_rearm_slack > TimeDelta::zero()) {
    tagged_i64(out, "tcp.rto_slack_ns", spec.tcp.rto_rearm_slack.ns());
  }

  tagged_bool(out, "rcv.delack", spec.receiver.delayed_ack);
  tagged_u64(out, "rcv.delack_segs", spec.receiver.delack_segment_threshold);
  tagged_i64(out, "rcv.delack_timeout_ns", spec.receiver.delack_timeout.ns());
  tagged_bool(out, "rcv.gro", spec.receiver.gro_enabled);
  tagged_i64(out, "rcv.gro_flush_ns", spec.receiver.gro_flush_timeout.ns());
  tagged_u64(out, "rcv.gro_max_segs", spec.receiver.gro_max_segments);

  tagged_i64(out, "conv.window_ns", spec.convergence_window.ns());
  tagged_i64(out, "conv.poll_ns", spec.convergence_poll.ns());
  tagged_double(out, "conv.tolerance", spec.convergence_tolerance);

  tagged_bool(out, "drop_log", spec.record_drop_log);
  tagged_bool(out, "cong_log", spec.record_congestion_log);
  // spec.audit is deliberately NOT encoded: the auditor is observational,
  // so an audited run may share a cache entry with a bare one.

  tagged_i64(out, "trace.interval_ns", spec.trace_interval.ns());
  tagged_u64(out, "trace.flows", spec.trace_flows.size());
  for (const uint32_t id : spec.trace_flows) tagged_u64(out, "trace.flow", id);

  // The inert shards field (experiment.h), appended only when it is not 1
  // so perfbench's core-mix-sh3 keeps its pinned digest; every other spec
  // keeps its historical byte encoding, cache keys and golden digests.
  if (spec.shards != 1) tagged_i64(out, "shards", spec.shards);

  // Appended only when the open-loop workload is enabled, so every
  // pre-workload spec keeps its historical byte encoding, cache keys and
  // golden digests. Empirical CDFs are encoded by value (every point), not
  // by path: two files with the same content share a cache entry.
  const WorkloadSpec& wl = spec.workload;
  if (wl.enabled()) {
    tagged_i64(out, "wl.arrival", static_cast<int64_t>(wl.arrival));
    tagged_double(out, "wl.rate", wl.arrivals_per_sec);
    tagged_u64(out, "wl.max_concurrent", wl.max_concurrent);
    tagged_u64(out, "wl.classes", wl.classes.size());
    for (const WorkloadClass& c : wl.classes) {
      tagged_string(out, "wl.c.name", c.name);
      tagged_double(out, "wl.c.weight", c.weight);
      tagged_string(out, "wl.c.cca", c.cca);
      tagged_i64(out, "wl.c.rtt_ns", c.rtt.ns());
      tagged_i64(out, "wl.c.size.kind", static_cast<int64_t>(c.size.kind));
      tagged_u64(out, "wl.c.size.min", c.size.min_segments);
      tagged_u64(out, "wl.c.size.max", c.size.max_segments);
      tagged_double(out, "wl.c.size.alpha", c.size.pareto_alpha);
      tagged_double(out, "wl.c.size.mu", c.size.lognormal_mu);
      tagged_double(out, "wl.c.size.sigma", c.size.lognormal_sigma);
      tagged_u64(out, "wl.c.size.fixed", c.size.fixed_segments);
      tagged_u64(out, "wl.c.size.cdf", c.size.empirical.size());
      for (const EmpiricalPoint& p : c.size.empirical) {
        tagged_double(out, "wl.c.size.cdf.p", p.cum_prob);
        tagged_u64(out, "wl.c.size.cdf.segs", p.segments);
      }
      tagged_i64(out, "wl.c.app", static_cast<int64_t>(c.app));
      tagged_u64(out, "wl.c.app_burst", c.app_burst_segments);
      tagged_i64(out, "wl.c.app_gap_ns", c.app_gap.ns());
    }
  }

  return out;
}

uint64_t spec_cache_key(const ExperimentSpec& spec, std::string_view salt) {
  std::string bytes;
  put_string(bytes, salt);
  bytes += canonical_spec_bytes(spec);
  return fnv1a64(bytes);
}

std::string cache_key_hex(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace ccas::sweep
