#!/bin/sh
# Fleet smoke test.
#
# Exercises the cross-process execution path end to end and asserts
# the contracts DESIGN.md section 10 promises:
#
#   1. `run all` stdout is byte-identical across --jobs 1, --jobs 4,
#      --procs 1/2/4 and --procs 2 --jobs 2 (the workers' own --jobs),
#      at two seeds;
#   2. verify with --metrics and --trace on a fleet matches the
#      in-process run byte-for-byte on stdout, and the traces are
#      identical modulo the "wall" field;
#   3. killing one worker mid-run loses nothing: its experiment is
#      re-run on a fresh worker and the output still matches;
#   4. a run interrupted by SIGKILL of the parent resumes from its
#      checkpoint journal and reproduces the uninterrupted output;
#   5. the large flood tier is byte-identical at --jobs 1 and 4;
#   6. a single experiment's stdout and --metrics are byte-identical at
#      --jobs 1, --procs 1/4 and --procs 2 --jobs 2.
#
# Usage: scripts/fleet_smoke.sh
set -eu

cli="_build/default/bin/dyngraph_cli.exe"
if [ ! -x "$cli" ]; then
  dune build bin/dyngraph_cli.exe
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# --- 1. byte identity across topologies, two seeds -------------------

for seed in 42 7; do
  "$cli" run all --seed "$seed" --jobs 1 >"$tmp/base_$seed.txt" 2>/dev/null
  for variant in "--jobs 4" "--procs 1" "--procs 2" "--procs 4" "--procs 2 --jobs 2"; do
    # shellcheck disable=SC2086
    "$cli" run all --seed "$seed" $variant >"$tmp/got.txt" 2>/dev/null
    if ! cmp -s "$tmp/base_$seed.txt" "$tmp/got.txt"; then
      echo "FAIL: run all --seed $seed $variant differs from --jobs 1" >&2
      diff "$tmp/base_$seed.txt" "$tmp/got.txt" >&2 || true
      exit 1
    fi
  done
  echo "ok: run all byte-identical across --jobs 1/4, --procs 1/2/4 and --procs 2 --jobs 2 (seed $seed)"
done

# --- 2. observability across the process boundary --------------------

"$cli" verify --jobs 1 --metrics --trace "$tmp/trace_inproc.jsonl" \
  >"$tmp/verify_inproc.txt" 2>/dev/null
"$cli" verify --procs 2 --metrics --trace "$tmp/trace_fleet.jsonl" \
  >"$tmp/verify_fleet.txt" 2>/dev/null
if ! cmp -s "$tmp/verify_inproc.txt" "$tmp/verify_fleet.txt"; then
  echo "FAIL: verify --metrics stdout differs between --jobs 1 and --procs 2" >&2
  diff "$tmp/verify_inproc.txt" "$tmp/verify_fleet.txt" >&2 || true
  exit 1
fi
strip_wall() { sed 's/"wall":[^,}]*//' "$1"; }
strip_wall "$tmp/trace_inproc.jsonl" >"$tmp/t_inproc"
strip_wall "$tmp/trace_fleet.jsonl" >"$tmp/t_fleet"
if ! cmp -s "$tmp/t_inproc" "$tmp/t_fleet"; then
  echo "FAIL: traces differ beyond the wall field between --jobs 1 and --procs 2" >&2
  diff "$tmp/t_inproc" "$tmp/t_fleet" >&2 || true
  exit 1
fi
[ -s "$tmp/trace_fleet.jsonl" ] || { echo "FAIL: empty fleet trace" >&2; exit 1; }
echo "ok: verify metrics + trace identical (modulo wall) across the process boundary"

# --- 3. crash isolation ----------------------------------------------

# The worker assigned E5 exits hard (exit 70) before computing; the
# marker file proves the crash actually fired and the scheduler must
# re-run only that experiment.
marker="$tmp/crash.marker"
DYNGRAPH_FLEET_CRASH="E5:$marker" \
  "$cli" run all --seed 42 --procs 3 >"$tmp/crashed.txt" 2>/dev/null
[ -f "$marker" ] || { echo "FAIL: crash hook never fired" >&2; exit 1; }
if ! cmp -s "$tmp/base_42.txt" "$tmp/crashed.txt"; then
  echo "FAIL: output differs after a worker crash + re-run" >&2
  diff "$tmp/base_42.txt" "$tmp/crashed.txt" >&2 || true
  exit 1
fi
echo "ok: killed worker's experiment re-ran, output unchanged"

# --- 4. checkpoint / resume ------------------------------------------

# Start a fleet run with a journal, SIGKILL the parent once at least
# one experiment is checkpointed, then re-run the same command: it must
# replay finished experiments from the journal and produce the base
# output.
journal="$tmp/run.journal"
"$cli" run all --seed 42 --procs 2 --journal "$journal" \
  >"$tmp/interrupted.txt" 2>/dev/null &
pid=$!
tries=0
until [ -f "$journal" ] && [ "$(wc -c <"$journal")" -gt 64 ]; do
  if ! kill -0 "$pid" 2>/dev/null; then
    # Finished before we could interrupt it — rare but fine; the
    # resume below then replays the whole run from the journal.
    break
  fi
  tries=$((tries + 1))
  [ "$tries" -lt 600 ] || { echo "FAIL: journal never grew" >&2; exit 1; }
  sleep 0.1
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$cli" run all --seed 42 --procs 2 --journal "$journal" \
  >"$tmp/resumed.txt" 2>/dev/null
if ! cmp -s "$tmp/base_42.txt" "$tmp/resumed.txt"; then
  echo "FAIL: resumed run differs from uninterrupted output" >&2
  diff "$tmp/base_42.txt" "$tmp/resumed.txt" >&2 || true
  exit 1
fi
echo "ok: journal resume after SIGKILL reproduces the uninterrupted output"

# --- 5. intra-run parallelism: large flood byte-identity --------------

# The off-heap flood tier (DESIGN.md section 11) fans its edge-MEG
# partitions over the domain pool; the claim JSON it writes
# must be byte-identical at --jobs 1 and --jobs 4 modulo wall-clock
# facts (seconds, date, topology/workers, provenance) and the gc.*
# gauges (memory facts of one process run, not deterministic results).
# n = 2^18 keeps the run in smoke territory while still crossing the
# off-heap threshold where the partitioned engine engages.
bench="_build/default/bench/main.exe"
if [ ! -x "$bench" ]; then
  dune build bench/main.exe
fi
for j in 1 4; do
  BENCH_LARGE_N=262144 "$bench" --scale large --only-large --no-micro \
    --jobs "$j" --json "$tmp/large_j$j.json" >/dev/null 2>&1
done
normalize_bench() {
  sed -e 's/"seconds": [^,}]*/"seconds": _/g' \
      -e 's/"date": "[^"]*"/"date": _/' \
      -e 's/"git_rev": "[^"]*"/"git_rev": _/' \
      -e 's/"hostname": "[^"]*"/"hostname": _/' \
      -e 's/"topology": {[^}]*}/"topology": _/' \
      -e 's/"workers": [0-9]*/"workers": _/' \
      -e 's/"gc\.[a-z_]*": -\{0,1\}[0-9]*\(, \)\{0,1\}//g' \
      "$1"
}
normalize_bench "$tmp/large_j1.json" >"$tmp/large_j1.norm"
normalize_bench "$tmp/large_j4.json" >"$tmp/large_j4.norm"
if ! cmp -s "$tmp/large_j1.norm" "$tmp/large_j4.norm"; then
  echo "FAIL: large.flood_e2e claim JSON differs between --jobs 1 and --jobs 4" >&2
  diff "$tmp/large_j1.norm" "$tmp/large_j4.norm" >&2 || true
  exit 1
fi
grep -q '"large.flood_e2e"' "$tmp/large_j1.json" \
  || { echo "FAIL: large.flood_e2e row missing from bench JSON" >&2; exit 1; }
echo "ok: large flood claim JSON byte-identical at --jobs 1 vs 4 (modulo wall facts)"

# --- 6. single experiments on the fleet ------------------------------

# A single experiment is a one-job plan (DESIGN.md section 13): in-process
# under --jobs, on one worker under --procs. Its stdout and --metrics
# work totals must be byte-identical at every topology.
for id in E1 E2 E6; do
  "$cli" run "$id" --seed 42 --jobs 1 --metrics >"$tmp/one_base.txt" 2>/dev/null
  for variant in "--procs 1" "--procs 4" "--procs 2 --jobs 2"; do
    # shellcheck disable=SC2086
    "$cli" run "$id" --seed 42 $variant --metrics >"$tmp/one_got.txt" 2>/dev/null
    if ! cmp -s "$tmp/one_base.txt" "$tmp/one_got.txt"; then
      echo "FAIL: run $id stdout+metrics differ between --jobs 1 and $variant" >&2
      diff "$tmp/one_base.txt" "$tmp/one_got.txt" >&2 || true
      exit 1
    fi
  done
  grep -q "exec\.plans" "$tmp/one_base.txt" \
    || { echo "FAIL: no exec metrics in run $id --metrics output" >&2; exit 1; }
  echo "ok: run $id stdout+metrics byte-identical at --jobs 1, --procs 1/4 and --procs 2 --jobs 2"
done

echo "fleet smoke passed"
