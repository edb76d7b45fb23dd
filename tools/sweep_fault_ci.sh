#!/usr/bin/env bash
# End-to-end exercise of the sweep supervision layer through the ccas_run
# binary: exit-code taxonomy (tools/EXIT_CODES.md), failure isolation
# (healthy cells byte-identical next to injected faults), quarantine
# .repro replay, transient retry, resume-after-abort byte identity, and
# manifest salt pinning, plus exit 1 for bad flag values (ccas_figures
# included). Run from the repo root:
#
#   tools/sweep_fault_ci.sh [path/to/ccas_run] [path/to/ccas_fleet] \
#                           [path/to/ccas_figures]
#
# CI runs it against the ASan build so every injected failure path is
# also leak/UB-checked. Uses only the CCAS_FAIL_CELL test hook; no cell
# here simulates more than a second of virtual time. The fleet scenarios
# (ccas_fleet, DESIGN.md §14) run three local workers against one shared
# store — one SIGKILLed mid-cell, one joining late — and gate the result
# on byte-identity with a serial sweep of the same grid.
set -u

RUN="${1:-./build/tools/ccas_run}"
FLEET="${2:-$(dirname "$RUN")/ccas_fleet}"
FIGURES="${3:-$(dirname "$RUN")/../bench/ccas_figures}"
if [ ! -x "$RUN" ]; then
  echo "error: ccas_run binary not found at $RUN" >&2
  exit 1
fi
if [ ! -x "$FLEET" ]; then
  echo "error: ccas_fleet binary not found at $FLEET" >&2
  exit 1
fi
if [ ! -x "$FIGURES" ]; then
  echo "error: ccas_figures binary not found at $FIGURES" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ccas_fault_ci.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# The grid under test: three seeds of a tiny two-flow EdgeScale cell.
# ccas_fleet takes GRID_FLAGS (it refuses --jobs: a worker computes one
# cell at a time); ccas_run takes BASE_FLAGS.
GRID_FLAGS=(--setting=edge --groups=newreno:2:20 --rate=10 --buffer=100000
            --stagger=0.1 --warmup=0.3 --measure=0.5)
BASE_FLAGS=("${GRID_FLAGS[@]}" --jobs=1)

run_case() {
  # run_case <name> <expected-exit> <stdout-file> [args...]
  local name="$1" want="$2" out="$3"
  shift 3
  "$@" >"$out" 2>"$out.err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL [$name]: expected exit $want, got $got" >&2
    sed 's/^/    /' "$out.err" >&2
    FAILURES=$((FAILURES + 1))
    return 1
  fi
  echo "ok   [$name] (exit $got)"
}

# Prints the per-cell stdout block for one seed (header line through the
# blank separator), so healthy sections can be compared byte-for-byte
# across runs that differ only in which other cells failed. Resumed
# cells drop the "(cached)" suffix first.
cell_block() {
  sed 's/ (cached)//' "$1" | awk -v cell="=== seed=$2 ===" '
    $0 == cell { on = 1 }
    on { print; if ($0 == "") exit }'
}

# --- 1. Baseline: all healthy, exit 0 -------------------------------------
run_case baseline 0 "$WORK/ref.out" \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1,2,3

# --- 2. Deterministic fault: exit 2, healthy cells intact, .repro ----------
run_case inject-throw 2 "$WORK/throw.out" \
  env CCAS_FAIL_CELL='seed=2:throw' \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1,2,3 --quarantine="$WORK/quar"

for seed in 1 3; do
  cell_block "$WORK/ref.out" "$seed" >"$WORK/ref.cell"
  cell_block "$WORK/throw.out" "$seed" >"$WORK/throw.cell"
  if ! cmp -s "$WORK/ref.cell" "$WORK/throw.cell"; then
    echo "FAIL [inject-throw]: healthy cell seed=$seed diverged" >&2
    diff "$WORK/ref.cell" "$WORK/throw.cell" | sed 's/^/    /' >&2
    FAILURES=$((FAILURES + 1))
  fi
done
if ! grep -q 'FAILED \[exception\]' "$WORK/throw.out"; then
  echo "FAIL [inject-throw]: missing FAILED [exception] line" >&2
  FAILURES=$((FAILURES + 1))
fi
REPRO=$(ls "$WORK"/quar/*.repro 2>/dev/null | head -n1)
if [ -z "$REPRO" ]; then
  echo "FAIL [inject-throw]: no .repro file in quarantine dir" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- 3. Real event budget: exit 3, and the .repro replays to exit 3 --------
run_case event-budget 3 "$WORK/events.out" \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1 --cell-events=100 \
  --quarantine="$WORK/quar_events"
grep -q 'FAILED \[budget-events\]' "$WORK/events.out" || {
  echo "FAIL [event-budget]: missing FAILED [budget-events] line" >&2
  FAILURES=$((FAILURES + 1))
}
EVENTS_REPRO=$(ls "$WORK"/quar_events/*.repro 2>/dev/null | head -n1)
if [ -n "$EVENTS_REPRO" ]; then
  # The last line of the .repro is the replay command; swap in the binary
  # under test (the file names a bare `ccas_run`).
  REPLAY=$(tail -n1 "$EVENTS_REPRO" | sed "s|ccas_run|\"$RUN\"|")
  ( eval "$REPLAY" ) >"$WORK/replay.out" 2>&1
  got=$?
  if [ "$got" -ne 3 ]; then
    echo "FAIL [repro-replay]: expected exit 3 replaying $EVENTS_REPRO, got $got" >&2
    sed 's/^/    /' "$WORK/replay.out" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok   [repro-replay] (exit 3)"
  fi
else
  echo "FAIL [event-budget]: no .repro file written" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- 4. Hung cell: the watchdog cancels it quickly, exit 3 -----------------
START=$(date +%s)
run_case hang-watchdog 3 "$WORK/hang.out" \
  env CCAS_FAIL_CELL='seed=1:hang' \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1 --cell-timeout=1
ELAPSED=$(( $(date +%s) - START ))
if [ "$ELAPSED" -gt 30 ]; then
  echo "FAIL [hang-watchdog]: took ${ELAPSED}s, watchdog did not cancel" >&2
  FAILURES=$((FAILURES + 1))
fi
grep -q 'FAILED \[budget-wall-clock\]' "$WORK/hang.out" || {
  echo "FAIL [hang-watchdog]: missing FAILED [budget-wall-clock] line" >&2
  FAILURES=$((FAILURES + 1))
}

# --- 5. Transient faults: retries absorb two, three exhaust --retries=1 ----
run_case transient-recovers 0 "$WORK/cacheio_ok.out" \
  env CCAS_FAIL_CELL='seed=1:cacheio:2' \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1 --retries=2
run_case transient-exhausts 4 "$WORK/cacheio_bad.out" \
  env CCAS_FAIL_CELL='seed=1:cacheio:3' \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1 --retries=1

# --- 6. Interrupted sweep resumes byte-identically -------------------------
# --max-failures=1 plus an injected throw on the first cell aborts the
# sweep with seeds 2 and 3 never claimed; the resumed run re-attempts the
# failure and fills the holes. Merged output must equal the baseline
# (modulo the "(cached)" suffix on resumed cells).
run_case resume-interrupt 2 "$WORK/interrupted.out" \
  env CCAS_FAIL_CELL='seed=1:throw' \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1,2,3 --max-failures=1 \
  --resume="$WORK/resume"
run_case resume-finish 0 "$WORK/resumed.out" \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1,2,3 --resume="$WORK/resume"
sed 's/ (cached)//' "$WORK/resumed.out" >"$WORK/resumed.norm"
if ! cmp -s "$WORK/ref.out" "$WORK/resumed.norm"; then
  echo "FAIL [resume-finish]: resumed output differs from uninterrupted run" >&2
  diff "$WORK/ref.out" "$WORK/resumed.norm" | sed 's/^/    /' >&2
  FAILURES=$((FAILURES + 1))
fi

# --- 7. Manifest salt mismatch is refused with exit 1 ----------------------
mkdir -p "$WORK/stale"
printf 'ccas-sweep-manifest v1 salt=some-older-simulator\n' \
  >"$WORK/stale/manifest.log"
run_case salt-mismatch 1 "$WORK/salt.out" \
  "$RUN" "${BASE_FLAGS[@]}" --seeds=1 --resume="$WORK/stale"

# --- 8. Fleet: 3 workers, one SIGKILLed mid-cell, one late joiner ----------
# A 24-cell grid worked by three local ccas_fleet processes sharing one
# store. Worker A hangs on seed=4 (CCAS_FAIL_CELL) and is SIGKILLed while
# holding its lease; after --lease-ttl the survivors reclaim the cell.
# Worker C joins a second late. The job must complete (B and C exit 0)
# and the store must be byte-identical to a serial --jobs=1 sweep of the
# same flags: same canonical manifest records, same results-file bytes.
FLEET_SEEDS=$(seq -s, 1 24)
run_case fleet-serial-ref 0 "$WORK/fleet_serial.out" \
  "$RUN" "${BASE_FLAGS[@]}" --seeds="$FLEET_SEEDS" --resume="$WORK/serial"

FLEET_FLAGS=("${GRID_FLAGS[@]}" --seeds="$FLEET_SEEDS"
             --fleet-dir="$WORK/fleet" --lease-ttl=2 --heartbeat=0.5
             --fleet-wait=120)
CCAS_FAIL_CELL='seed=4:hang' "$FLEET" "${FLEET_FLAGS[@]}" --worker-id=wA \
  >"$WORK/fleet_a.out" 2>"$WORK/fleet_a.err" &
PID_A=$!
"$FLEET" "${FLEET_FLAGS[@]}" --worker-id=wB \
  >"$WORK/fleet_b.out" 2>"$WORK/fleet_b.err" &
PID_B=$!
sleep 1
"$FLEET" "${FLEET_FLAGS[@]}" --worker-id=wC \
  >"$WORK/fleet_c.out" 2>"$WORK/fleet_c.err" &
PID_C=$!
sleep 1
kill -9 "$PID_A" 2>/dev/null
wait "$PID_A" 2>/dev/null
wait "$PID_B"; GOT_B=$?
wait "$PID_C"; GOT_C=$?
if [ "$GOT_B" -ne 0 ] || [ "$GOT_C" -ne 0 ]; then
  echo "FAIL [fleet-kill]: surviving workers exited $GOT_B/$GOT_C (want 0/0)" >&2
  sed 's/^/    /' "$WORK/fleet_b.err" "$WORK/fleet_c.err" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok   [fleet-kill] (exit 0/0 after SIGKILL of wA)"
fi

# Both survivors rendered the identical final report.
if ! cmp -s "$WORK/fleet_b.out" "$WORK/fleet_c.out"; then
  echo "FAIL [fleet-report]: workers rendered different final reports" >&2
  diff "$WORK/fleet_b.out" "$WORK/fleet_c.out" | sed 's/^/    /' >&2
  FAILURES=$((FAILURES + 1))
fi
# --report-only renders the same bytes from the store alone.
run_case fleet-report-only 0 "$WORK/fleet_ro.out" \
  "$FLEET" --fleet-dir="$WORK/fleet" --report-only
if ! cmp -s "$WORK/fleet_ro.out" "$WORK/fleet_b.out"; then
  echo "FAIL [fleet-report-only]: report differs from the workers'" >&2
  FAILURES=$((FAILURES + 1))
fi

# Byte-identity with the serial sweep: canonical manifest records (strip
# the per-run attempts/worker/fence fields, sort, dedup — a cell another
# worker finished between a reload and a claim is legitimately committed
# twice with identical bytes) and every results file. A determinism
# violation would surface as a `fail class=determinism-violation` line
# that no dedup can hide.
canonical_manifest() {
  sed -e 's/ attempts=[0-9]*//' -e 's/ worker=[^ ]*//' \
      -e 's/ fence=[0-9]*//' "$1" | sort -u
}
canonical_manifest "$WORK/serial/manifest.log" >"$WORK/serial.canon"
canonical_manifest "$WORK/fleet/manifest.log" >"$WORK/fleet.canon"
if ! cmp -s "$WORK/serial.canon" "$WORK/fleet.canon"; then
  echo "FAIL [fleet-identity]: fleet manifest diverges from serial sweep" >&2
  diff "$WORK/serial.canon" "$WORK/fleet.canon" | sed 's/^/    /' >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok   [fleet-identity] (manifest canonical match, 24 cells)"
fi
for ref in "$WORK"/serial/results/*.ccres; do
  if ! cmp -s "$ref" "$WORK/fleet/results/$(basename "$ref")"; then
    echo "FAIL [fleet-identity]: results file $(basename "$ref") differs" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
# No lease litter after a clean finish.
if ls "$WORK"/fleet/leases/*.lease >/dev/null 2>&1; then
  echo "FAIL [fleet-identity]: leftover lease files after completion" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- 9. Fleet: transient cache-io faults are absorbed by retries -----------
run_case fleet-cacheio 0 "$WORK/fleet_io.out" \
  env CCAS_FAIL_CELL='seed=2:cacheio:2' \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1,2,3 --retries=2 \
  --fleet-dir="$WORK/fleet_io" --lease-ttl=2 --heartbeat=0.5 --fleet-wait=60
# Each of its three cells matches the serial sweep's record for the same
# spec hash (seeds 1-3 are a subset of the 24-seed reference grid).
canonical_manifest "$WORK/fleet_io/manifest.log" >"$WORK/fleet_io.canon"
IO_CELLS=$(grep -c '^cell ' "$WORK/fleet_io.canon")
if [ "$IO_CELLS" -ne 3 ]; then
  echo "FAIL [fleet-cacheio]: expected 3 cell records, got $IO_CELLS" >&2
  FAILURES=$((FAILURES + 1))
fi
grep '^cell ' "$WORK/fleet_io.canon" | while IFS= read -r line; do
  if ! grep -qF "$line" "$WORK/serial.canon"; then
    echo "FAIL [fleet-cacheio]: record not in serial reference: $line" >&2
    exit 1
  fi
done || FAILURES=$((FAILURES + 1))

# Faults that outlast --retries (default 2) exit 4 and leave a .repro in
# the store's quarantine dir; a budget class never retries and exits 3.
run_case fleet-cacheio-exhausts 4 "$WORK/fleet_io_bad.out" \
  env CCAS_FAIL_CELL='seed=2:cacheio:3' \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1,2,3 \
  --fleet-dir="$WORK/fleet_io_bad" --lease-ttl=2 --heartbeat=0.5 --fleet-wait=60
if ! ls "$WORK"/fleet_io_bad/quarantine/*.repro >/dev/null 2>&1; then
  echo "FAIL [fleet-cacheio-exhausts]: no .repro under <fleet-dir>/quarantine/" >&2
  FAILURES=$((FAILURES + 1))
fi
run_case fleet-events 3 "$WORK/fleet_events.out" \
  env CCAS_FAIL_CELL='seed=2:events' \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1,2,3 \
  --fleet-dir="$WORK/fleet_events" --lease-ttl=2 --heartbeat=0.5 --fleet-wait=60

# --- 10. Fleet: mismatched stores are refused with exit 1 ------------------
mkdir -p "$WORK/fleet_stale"
printf 'ccas-fleet-job v1 salt=some-older-simulator\nend 0\n' \
  >"$WORK/fleet_stale/job.spec"
run_case fleet-salt-mismatch 1 "$WORK/fleet_salt.out" \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1 --fleet-dir="$WORK/fleet_stale"
run_case fleet-grid-mismatch 1 "$WORK/fleet_grid.out" \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1,2,4 --fleet-dir="$WORK/fleet_io"

# --- 11. Bad flag values are usage errors (exit 1), never cell failures --
# Each value is refused when the flags are parsed: a negative warmup used
# to run (exit 0), a negative rate used to fail the cell (exit 2), and a
# switch given a value used to be silently accepted.
run_case bad-warmup 1 "$WORK/bad_warmup.out" \
  "$RUN" "${BASE_FLAGS[@]}" --warmup=-1
run_case bad-rate 1 "$WORK/bad_rate.out" \
  "$RUN" "${BASE_FLAGS[@]}" --rate=-5
run_case switch-with-value 1 "$WORK/switch_value.out" \
  "$RUN" "${BASE_FLAGS[@]}" --no-cache=false
run_case fleet-bad-lease-ttl 1 "$WORK/fleet_bad_ttl.out" \
  "$FLEET" "${GRID_FLAGS[@]}" --fleet-dir="$WORK/fleet_bad" --lease-ttl=nan
# A grid flag the fleet has no use for is refused, not silently ignored,
# and the sweep environment is read as strictly as the flags.
run_case fleet-jobs 1 "$WORK/fleet_jobs.out" \
  "$FLEET" "${GRID_FLAGS[@]}" --fleet-dir="$WORK/fleet_jobs" --jobs=2
# Their environment is refused too: it used to be read and ignored (exit
# 0, and CCAS_CACHE_DIR's directory never created).
run_case env-fleet-jobs 1 "$WORK/env_fleet_jobs.out" \
  env CCAS_JOBS=8 "$FLEET" "${GRID_FLAGS[@]}" --seeds=1 --fleet-dir="$WORK/env_fleet"
run_case env-fleet-cache-dir 1 "$WORK/env_fleet_cache.out" \
  env CCAS_CACHE_DIR="$WORK/env_fleet_cache" \
  "$FLEET" "${GRID_FLAGS[@]}" --seeds=1 --fleet-dir="$WORK/env_fleet"
run_case env-bad-jobs 1 "$WORK/env_jobs.out" \
  env CCAS_JOBS=3x "$RUN" "${GRID_FLAGS[@]}" --seeds=1,2,3
run_case env-bad-no-cache 1 "$WORK/env_no_cache.out" \
  env CCAS_NO_CACHE=false "$RUN" "${BASE_FLAGS[@]}"
# Sharded execution is retired: its flag and its variable are refused,
# not silently run serially.
run_case shards-removed 1 "$WORK/shards_flag.out" \
  "$RUN" "${BASE_FLAGS[@]}" --shards=2
run_case shards-removed-env 1 "$WORK/shards_env.out" \
  env CCAS_SHARDS=2 "$RUN" "${BASE_FLAGS[@]}"
if ! grep -q CCAS_SHARDS "$WORK/shards_env.out.err"; then
  echo "FAIL [shards-removed-env]: the error does not name CCAS_SHARDS" >&2
  FAILURES=$((FAILURES + 1))
fi

# --- 12. ccas_figures: bad input and a failed cell exit 1 ------------------
# The per-figure bench binaries it replaced ran --jobs=3x with 3 workers,
# took --no-cache=false as --no-cache, ran REPRO_SCALE=nan with a -2^63 bps
# bottleneck, and died of SIGABRT on a failed (fail-fast) cell.
FIG_FLAGS=(--cache-dir="$WORK/fig_cache" --no-progress)
run_case figures-unknown-id 1 "$WORK/fig_id.out" \
  "$FIGURES" "${FIG_FLAGS[@]}" --figure=nope
run_case figures-bad-jobs 1 "$WORK/fig_jobs.out" \
  "$FIGURES" "${FIG_FLAGS[@]}" --figure=fig4 --jobs=3x
run_case figures-switch-with-value 1 "$WORK/fig_switch.out" \
  "$FIGURES" "${FIG_FLAGS[@]}" --figure=fig4 --no-cache=false
run_case figures-nan-scale 1 "$WORK/fig_nan.out" \
  env REPRO_SCALE=nan "$FIGURES" "${FIG_FLAGS[@]}" --figure=fig4
run_case figures-failed-cell 1 "$WORK/fig_throw.out" \
  env CCAS_FAIL_CELL='min_cwnd=2:throw' \
  "$FIGURES" "${FIG_FLAGS[@]}" --figure=ablation_bbr_mincwnd --jobs=1
# A healthy tiny-scale figure still prints its table and writes its CSV.
run_case figures-smoke 0 "$WORK/fig_smoke.out" \
  env -C "$WORK" REPRO_SCALE=0.02 REPRO_STAGGER_SEC=0.2 REPRO_WARMUP_SEC=0.5 \
  REPRO_MEASURE_SEC=1 "$(realpath "$FIGURES")" "${FIG_FLAGS[@]}" --figure=ablation_sack
if [ ! -s "$WORK/bench_ablation_sack.csv" ]; then
  echo "FAIL [figures-smoke]: no bench_ablation_sack.csv written" >&2
  FAILURES=$((FAILURES + 1))
fi

echo
if [ "$FAILURES" -ne 0 ]; then
  echo "sweep_fault_ci: $FAILURES scenario(s) FAILED" >&2
  exit 1
fi
echo "sweep_fault_ci: all scenarios passed"
