"""Turns the raw measurement record of perfbench_measure into named metrics.

The C++ binary (src/main.cc) measures and verifies; this module does all the
statistics and presentation: medians, the tail-percentile rule, end-to-end
metrics for untraced runs and per-layer metrics for traced runs, each with a
unit and, for every ratio, the base it was computed from.
"""

import collections
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is reported only when at least this many samples lie beyond
# it; a quartile likewise needs this many below Q1 and above Q3.
MIN_BEYOND = 10
TAIL_LADDER = (90.0, 99.0, 99.9)


def median(xs):
    """Median of a non-empty sample (the primary statistic of every timing)."""
    if not xs:
        raise ValueError("median of an empty sample")
    return statistics.median(xs)


def samples_beyond(n, p):
    """Samples of n that lie beyond the p-th percentile (0 < p < 100)."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def quartiles(xs):
    """(Q1, Q3), or None unless >= MIN_BEYOND samples lie below Q1 and above Q3."""
    if samples_beyond(len(xs), 75.0) < MIN_BEYOND:
        return None
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def percentile(xs, p):
    """The p-th percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if not 0.0 < p < 100.0 or samples_beyond(len(xs), p) < MIN_BEYOND:
        return None
    ordered = sorted(xs)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(xs):
    """(p, value) for the highest ladder percentile the sample supports, or None."""
    best = None
    for p in TAIL_LADDER:
        v = percentile(xs, p)
        if v is not None:
            best = (p, v)
    return best


def describe(xs, unit):
    """One-line summary: median, quartiles and tail percentile where the
    sample supports them, and the sample count."""
    text = "median %.6g %s over n=%d" % (median(xs), unit, len(xs))
    q = quartiles(xs)
    if q is not None:
        text += ", IQR %.6g-%.6g" % q
    t = tail(xs)
    if t is None:
        text += " (no tail percentile: p90 needs >= %d samples)" % (MIN_BEYOND * 10)
    else:
        text += ", p%g %.6g %s" % (t[0], t[1], unit)
    return text


class Metric:
    def __init__(self, name, value, unit, base=None, note=None):
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        self.name = name
        self.value = float(value)
        self.unit = unit
        self.base = base  # "numerator / denominator" text, required for ratios
        self.note = note

    def line(self):
        text = "%-40s %.6g %s" % (self.name, self.value, self.unit)
        if self.base:
            text += "  [base: %s]" % self.base
        if self.note:
            text += "  (%s)" % self.note
        return text


def ratio(name, num, den, unit, num_desc, den_desc, scale=1.0, note=None):
    """A metric num/den * scale printed with its base; 0 when den is 0."""
    value = num / den * scale if den else 0.0
    base = "%s %.6g / %s %.6g" % (num_desc, num, den_desc, den)
    if scale != 1.0:
        base += " x %g" % scale
    return Metric(name, value, unit, base=base, note=note)


def _ok_ops(raw, traced=None):
    ops = [o for o in raw["ops"] if o.get("ok")]
    if traced is not None:
        ops = [o for o in ops if o["traced"] == traced]
    return ops


def _wall_per_sim(ops):
    return [o["timed_s"] / o["sim_s"] for o in ops if o["sim_s"] > 0]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus summary lines."""
    ops = _ok_ops(raw, traced=False)
    if not ops:
        raise ValueError("no successful operation to measure")
    wps = _wall_per_sim(ops)
    setups = [o["setup_s"] for o in ops]
    warm = raw["warm_pass_s"]
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = [
        Metric("wall_per_sim_s", min(wps), "s/s",
               base="fastest op: timed host s / simulated s"),
        Metric("setup_s", min(setups), "s",
               note="fastest op's run_experiment wall minus event loop"),
        Metric("warm_wall_s", min(warm), "s", note="fastest warm pass"),
        Metric("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MB"),
        ratio("ok_frac", attempted - failed, attempted, "ratio",
              "operations ok", "attempted"),
    ]
    lines = [
        "wall_per_sim_s: fastest %.6g s/s; %s" % (min(wps), describe(wps, "s/s")),
        "setup_s: fastest %.6g s; %s" % (min(setups), describe(setups, "s")),
        "warm_wall_s: fastest %.6g s; %s" % (min(warm), describe(warm, "s")),
        ratio("failed_frac", failed, attempted, "ratio", "failed", "attempted").line(),
    ]
    return metrics, lines


# Per-layer metrics the benchmark's design calls for but the program does not
# expose, with the reason.
DROPPED = {
    "sim.timer_useful_ratio": "SimProfile counts only wasted (stale + chase) timer "
    "wakeups; useful fires share event tag 0 with delay lines and arrivals, so "
    "the denominator is not observable. sim.timer_wasted_wakeups is reported.",
}


def _replay(raw, name):
    for r in raw["replays"]:
        if r["name"] == name:
            return r
    raise KeyError("replay %s missing" % name)


def per_layer(raw):
    """The per-layer metrics of a traced run, plus attribution lines."""
    # Counters a run never touched (no fixed flows, no workload) read as 0.
    c = collections.defaultdict(int, raw["counters"])
    traced = _ok_ops(raw, traced=True)
    plain = _ok_ops(raw, traced=False)
    if not traced or not plain:
        raise ValueError("a traced run needs both plain and traced operations")
    sim_s = c["harness.sim_seconds"]
    measured_s = c["harness.measured_ns"] / 1e9
    loop_s = median([o["loop_s"] for o in traced])
    # Fastest op on each side, as for the end-to-end wall_per_sim_s.
    wps_traced = min(_wall_per_sim(traced))
    wps_plain = min(_wall_per_sim(plain))
    events = c["sim.events"]
    replay_ns = {r["name"]: median(r["values"]) for r in raw["replays"]}

    m = [Metric("sim.events", events, "count")]
    for t in range(9):
        key = "sim.events_by_tag.%d" % t
        m.append(Metric(key, c[key], "count"))
    m += [
        Metric("sim.loop_s", loop_s, "s", note="median event-loop wall, traced ops"),
        ratio("sim.ns_per_event", loop_s, events, "ns", "sim.loop_s", "sim.events", 1e9),
        Metric("sim.wheel_cascades", c["sim.wheel_cascades"], "count"),
        Metric("sim.overflow_pushes", c["sim.overflow_pushes"], "count"),
        Metric("sim.timer_wasted_wakeups",
               c["sim.timer_stale_wakeups"] + c["sim.timer_chase_wakeups"], "count"),
        ratio("util.allocs_per_event", c["util.measure_heap_allocs"],
              c["util.measure_sim_events"], "ratio",
              "measure_heap_allocs", "measure_sim_events"),
    ]

    windows = c["sim.parallel.windows"]
    core_wall = median([o.get("core_wall_s", 0.0) for o in traced])
    edge_wall = median([o.get("edge_wall_s", 0.0) for o in traced])
    m += [
        Metric("sim.parallel.windows", windows, "count"),
        ratio("sim.parallel.events_per_window", events, windows, "events",
              "sim.events", "windows"),
        Metric("sim.parallel.core_wall_s", core_wall, "s"),
        Metric("sim.parallel.edge_wall_s", edge_wall, "s"),
    ]
    if windows:
        m.append(ratio("sim.parallel.serial_frac", core_wall, loop_s, "ratio",
                       "core phase wall", "loop wall",
                       note="Amdahl bound on shard speedup"))
    else:
        m.append(Metric("sim.parallel.serial_frac", 1.0, "ratio",
                        base="serial run: whole loop 1 / loop 1"))

    m += [
        Metric("tcp.segments_sent", c["tcp.segments_sent"], "count"),
        Metric("tcp.retransmits", c["tcp.retransmits"], "count"),
        Metric("tcp.rto_events", c["tcp.rto_events"], "count"),
    ]
    for name in ("sim.wheel_push_pop_ns", "tcp.scoreboard_ack_ns.inline",
                 "tcp.scoreboard_ack_ns.spilled", "cca.newreno.on_ack_ns",
                 "cca.cubic.on_ack_ns", "cca.bbr.on_ack_ns",
                 "net.qdisc.drop_tail.op_ns", "net.qdisc.fq_codel.op_ns",
                 "harness.flow_table.create_recycle_ns", "stats.gk_insert_ns"):
        r = _replay(raw, name)
        m.append(Metric(name, replay_ns[name], "ns",
                        note="replay median of %d batches, %s" % (len(r["values"]), r["sized_by"])))

    m += [
        Metric("net.queue.enqueued", c["net.queue.enqueued"], "count"),
        Metric("net.queue.dropped", c["net.queue.dropped"], "count"),
        Metric("net.queue.head_drops", c["net.queue.head_drops"], "count"),
        Metric("net.queue.marks", c["net.queue.marks"], "count"),
        ratio("net.queue.mean_sojourn_us", c["net.queue.sojourn_ns_sum"],
              c["net.queue.sojourn_samples"], "us", "sojourn ns sum", "samples", 1e-3,
              note=None if c["net.queue.sojourn_samples"] else "drop-tail does not timestamp"),
        Metric("net.impair.drops", c["net.impair.drops"], "count"),
        Metric("net.impair.delays", c["net.impair.delays"], "count"),
        Metric("net.impair.dups", c["net.impair.dups"], "count"),
    ]

    pkt_rate = c["net.queue.dequeued"] / measured_s if measured_s else 0.0
    m += [
        ratio("harness.ns_per_delivered_pkt", wps_traced, pkt_rate, "ns",
              "wall_per_sim_s", "bottleneck dequeues per simulated s", 1e9),
        Metric("harness.build_assemble_s", median([o["setup_s"] for o in traced]), "s",
               note="run_experiment span minus event loop, traced ops"),
    ]

    arrivals, completed = c["workload.arrivals"], c["workload.completed"]
    m += [
        Metric("workload.arrivals", arrivals, "count"),
        Metric("workload.completed", completed, "count"),
        Metric("workload.rejected", c["workload.rejected"], "count"),
        Metric("workload.abandoned", c["workload.abandoned"], "count"),
        ratio("workload.completed_ratio", completed, arrivals, "ratio",
              "completed", "arrivals"),
    ]

    cell_walls = []
    busy = []
    hits = cells = 0
    for o in traced:
        walls = o.get("cell_wall_s", [o["wall_s"]])
        cell_walls += walls
        busy.append(sum(walls) / (o.get("jobs", 1) * o["wall_s"]))
        hits += o.get("warm_hits", 0)
        cells += o.get("warm_cells", 0)
    if not cells:  # single-cell workloads: every warm pass was checked as a hit
        hits = cells = len(raw["warm_pass_s"])
    store = _replay(raw, "sweep.cache_store_ms")["values"]
    load = _replay(raw, "sweep.cache_load_ms")["values"]
    m += [
        Metric("sweep.cell_wall_p50_s", median(cell_walls), "s",
               note="n=%d cells" % len(cell_walls)),
        Metric("sweep.cell_wall_max_s", max(cell_walls), "s"),
        Metric("sweep.worker_busy_frac", median(busy), "ratio",
               base="sum cell wall / (jobs x pass wall), median over traced passes"),
        ratio("sweep.warm_hit_ratio", hits, cells, "ratio", "warm hits", "warm cells"),
        Metric("sweep.spec_hash_us", replay_ns["sweep.spec_hash_us"], "us"),
        Metric("sweep.cache_store_ms_p50", median(store), "ms", note="n=%d stores" % len(store)),
        Metric("sweep.cache_store_ms_max", max(store), "ms"),
        Metric("sweep.cache_load_ms_p50", median(load), "ms", note="n=%d loads" % len(load)),
        Metric("sweep.entry_kb", raw["cache_entry_kb"], "KB"),
        Metric("check.digest_ms", median([o["digest_ms"] for o in traced]), "ms"),
        ratio("trace_overhead_frac", wps_traced - wps_plain, wps_plain, "ratio",
              "traced - plain wall_per_sim_s", "plain wall_per_sim_s"),
    ]

    attribution, lines = _attribution(raw, loop_s, replay_ns, sim_s, measured_s)
    m.append(attribution)
    lines += ["dropped: %s — %s" % (k, v) for k, v in DROPPED.items()]
    return m, lines


def _attribution(raw, loop_s, replay_ns, sim_s, measured_s):
    """Loop time explained by (count x replay ns/op) per layer, and the rest."""
    c = collections.defaultdict(int, raw["counters"])
    # Queue counters cover the measurement window; scale them to the loop.
    scale = sim_s / measured_s if measured_s else 0.0
    acks = c["net.queue.dequeued"] * scale
    ccas = ("newreno", "cubic", "bbr")
    qdisc = "net.qdisc.fq_codel.op_ns" if c["net.queue.sojourn_samples"] else "net.qdisc.drop_tail.op_ns"
    parts = [
        ("sim.wheel", c["sim.events"], replay_ns["sim.wheel_push_pop_ns"]),
        ("tcp.scoreboard", acks, replay_ns["tcp.scoreboard_ack_ns.spilled"]),
        ("cca", acks, sum(replay_ns["cca.%s.on_ack_ns" % k] for k in ccas) / len(ccas)),
        ("net.qdisc", c["net.queue.enqueued"] * scale, replay_ns[qdisc]),
        ("harness.flow_table", c["workload.arrivals"], replay_ns["harness.flow_table.create_recycle_ns"]),
        ("stats.gk", c["workload.completed"], replay_ns["stats.gk_insert_ns"]),
    ]
    lines = ["attribution of sim.loop_s %.6g s (count x replay ns/op):" % loop_s]
    total = 0.0
    for name, count, ns in parts:
        secs = count * ns / 1e9
        total += secs
        lines.append("  %-20s %14.0f x %8.2f ns = %.6g s" % (name, count, ns, secs))
    metric = ratio("attribution.unattributed_frac", loop_s - total, loop_s, "ratio",
                   "loop s minus attributed s", "loop s",
                   note="cross-layer and un-replayed work; negative = replay overestimates")
    lines.append("  unattributed         %.6g s of %.6g s" % (loop_s - total, loop_s))
    return metric, lines
