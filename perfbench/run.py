#!/usr/bin/env python3
"""Benchmark entry point: builds the measurement binary from source, runs one workload,
checks its outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload core-mix --seed 7 --seconds 25 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones (see perfbench/README.md). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Build logs and diagnostics go to standard error.

Exit codes: 0 measured (even if some operations failed: see "correct"),
2 bad arguments or missing sources, 3 build failure, 4 measurement failure,
5 no operation produced a correct output (nothing to measure).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_measure")
WORKLOADS = ("core-mix", "core-mix-sh3", "userscale-churn", "sweep-grid")
DEFAULT_SEED = 1  # must match kDefaultSeed in src/workloads.h
DEFAULT_SECONDS = 25.0  # the run_seconds the bounds in BENCHMARK.json were set on
# Time perfbench_measure may take beyond --seconds: the serial twin of
# core-mix-sh3, the last operation's overrun, and a traced run's replays.
MEASURE_MARGIN_S = 60.0

# Environment overrides the library reads (see src/main.cc).
SCRUBBED = ("CCAS_JOBS", "CCAS_SHARDS", "CCAS_CACHE_DIR", "CCAS_NO_CACHE",
            "CCAS_CHECK", "CCAS_FAIL_CELL", "CCAS_LOG")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("REPRO_") or k in SCRUBBED)
    for k in cleared:
        del env[k]
    if cleared:
        log("cleared environment overrides: " + ", ".join(cleared))
    return env


def build(env):
    """Configures (once) and builds perfbench_measure; the library compiles from ../src."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(env, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    # The default target re-runs the configure step when CMakeLists.txt changed.
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.exit(3)


def source_identity():
    """The commit when run from git; otherwise a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return "commit " + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "no git commit; source sha256 " + h.hexdigest()[:16]


def pinned_digest(workload, size, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "pinned_digests.json")) as fh:
        return json.load(fh).get(size, {}).get(workload)


def run_measure(args, env):
    work = os.path.join(BUILD_DIR, "work")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work]
    digest = pinned_digest(args.workload, args.size, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    timeout = args.seconds + MEASURE_MARGIN_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench_measure exceeded %g s" % timeout)
        sys.exit(4)
    raw = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH_RAW ")]
    if proc.returncode != 0 or not raw:
        log("perfbench_measure failed (exit %d)" % proc.returncode)
        sys.exit(4)
    text = raw[-1][len("PERFBENCH_RAW "):]
    with open(os.path.join(work, "raw-%s.json" % args.workload), "w") as fh:
        fh.write(text + "\n")
    return json.loads(text), digest


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long smoke run of the same structure")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src; run from a full checkout" % ROOT)
        return 2

    env = clean_env()
    build(env)
    raw, digest = run_measure(args, env)

    load = os.getloadavg()
    print("workload: %s  seed: %d  size: %s  trace: %d  seconds: %g"
          % (args.workload, args.seed, args.size, args.trace, args.seconds))
    print("program: %s, build %s" % (source_identity(), raw["build_type"]))
    busy = raw["busy_threads_max"]
    print("host: nproc %d, load average %.2f %.2f %.2f; busy threads: %d%s"
          % (os.cpu_count() or 0, load[0], load[1], load[2], busy,
             " (main thread waits)" if busy > 1 else ""))
    print("output digest: %s; %s" % (raw["digest"], "pinned %s" % digest if digest else
                                     "not pinned for this seed/size: equalities only"))
    for f in raw["failures"]:
        print("FAILED CHECK %s: %s" % (f["name"], f["detail"]))

    try:
        values, lines = (metrics.per_layer if args.trace else metrics.end_to_end)(raw)
    except ValueError as e:
        log("no metrics: %s (%d of %d operations failed)" % (e, raw["failed"], raw["attempted"]))
        return 5
    for line in lines:
        print(line)
    for m in values:
        print(m.line())

    result = {
        "correct": raw["failed"] == 0 and not raw["failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
