#!/bin/sh
# Serve smoke test.
#
# Exercises the long-lived daemon end to end and asserts the contracts
# DESIGN.md section 12 promises:
#
#   1. a daemon serving 4 concurrent clients returns results
#      byte-identical to the batch CLI (`dyngraph run <id> --seed S`)
#      for every request;
#   2. repeated (id, seed, scale, render) requests are answered from
#      the warm result cache;
#   3. progress frames stream to clients while requests execute;
#   4. SIGTERM shuts the daemon down cleanly: exit 0, socket unlinked;
#   5. two clients sending fresh seeds at once to a --jobs 2 daemon get
#      results byte-identical to the batch CLI: requests run one at a
#      time, so no request shares the kernels' per-domain scratch with
#      another.
#
# Usage: scripts/serve_smoke.sh
set -eu

cli="_build/default/bin/dyngraph_cli.exe"
if [ ! -x "$cli" ]; then
  dune build bin/dyngraph_cli.exe
fi

tmp="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

sock="$tmp/dyngraph.sock"

# --- 0. bring the daemon up ------------------------------------------

"$cli" serve --socket "$sock" --jobs 2 2>"$tmp/serve.err" &
pid=$!
tries=0
until [ -S "$sock" ]; do
  kill -0 "$pid" 2>/dev/null || { echo "FAIL: daemon died on startup" >&2; cat "$tmp/serve.err" >&2; exit 1; }
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || { echo "FAIL: daemon never bound $sock" >&2; exit 1; }
  sleep 0.1
done
echo "ok: daemon listening on $sock"

# --- 1. batch references ---------------------------------------------

for id in E1 E2; do
  "$cli" run "$id" --seed 42 >"$tmp/ref_$id.txt" 2>/dev/null
done

# --- 2. concurrent load, byte identity, cache, progress --------------

# 4 clients x 3 requests over 2 ids at one seed: 12 requests, 2
# distinct cache keys, so at most 2 requests execute and the rest must
# come from the warm cache. Every dumped result must equal the batch
# CLI's stdout byte for byte.
"$cli" load --socket "$sock" --clients 4 --requests 3 --ids E1,E2 \
  --seed 42 --dump "$tmp/dump" >"$tmp/load.out" 2>/dev/null \
  || { echo "FAIL: load reported errors" >&2; cat "$tmp/load.out" >&2; exit 1; }
cat "$tmp/load.out"

found=0
for f in "$tmp"/dump/*.out; do
  [ -e "$f" ] || { echo "FAIL: no dump files written" >&2; exit 1; }
  id="${f##*_}"
  id="${id%.out}"
  if ! cmp -s "$tmp/ref_$id.txt" "$f"; then
    echo "FAIL: $f differs from batch 'run $id --seed 42' stdout" >&2
    diff "$tmp/ref_$id.txt" "$f" >&2 || true
    exit 1
  fi
  found=$((found + 1))
done
[ "$found" -eq 12 ] || { echo "FAIL: expected 12 results, got $found" >&2; exit 1; }
echo "ok: 12 results from 4 concurrent clients byte-identical to the batch CLI"

cached="$(sed -n 's/.*cached: \([0-9]*\).*/\1/p' "$tmp/load.out")"
[ "${cached:-0}" -ge 1 ] || { echo "FAIL: no cache hits on repeated requests" >&2; exit 1; }
echo "ok: $cached repeats answered from the warm result cache"

frames="$(sed -n 's/.*progress_frames: \([0-9]*\).*/\1/p' "$tmp/load.out")"
[ "${frames:-0}" -ge 1 ] || { echo "FAIL: no progress frames streamed" >&2; exit 1; }
echo "ok: $frames progress frames streamed during execution"

# --- 3. clean SIGTERM shutdown ---------------------------------------

kill -TERM "$pid"
tries=0
while kill -0 "$pid" 2>/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || { echo "FAIL: daemon still running after SIGTERM" >&2; exit 1; }
  sleep 0.1
done
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "FAIL: daemon exited $status after SIGTERM" >&2; cat "$tmp/serve.err" >&2; exit 1; }
[ ! -e "$sock" ] || { echo "FAIL: socket file not unlinked on shutdown" >&2; exit 1; }
echo "ok: SIGTERM shutdown clean (exit 0, socket unlinked)"

# --- 4. fresh seeds from concurrent clients --------------------------

# Two clients at once, 10 requests each over E1 and E11 with
# --vary-seed: every request misses the cache and executes, and every
# result must match the batch CLI byte for byte at its own seed.
sock2="$tmp/dyngraph2.sock"
"$cli" serve --socket "$sock2" --jobs 2 2>"$tmp/serve2.err" &
pid=$!
tries=0
until [ -S "$sock2" ]; do
  kill -0 "$pid" 2>/dev/null || { echo "FAIL: second daemon died on startup" >&2; cat "$tmp/serve2.err" >&2; exit 1; }
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || { echo "FAIL: second daemon never bound $sock2" >&2; exit 1; }
  sleep 0.1
done

"$cli" load --socket "$sock2" --clients 2 --requests 10 --ids E1,E11 \
  --seed 200 --vary-seed --dump "$tmp/dump2" >"$tmp/load2.out" 2>/dev/null \
  || { echo "FAIL: fresh-seed load reported errors" >&2; cat "$tmp/load2.out" >&2; exit 1; }
cat "$tmp/load2.out"

found=0
for f in "$tmp"/dump2/*.out; do
  [ -e "$f" ] || { echo "FAIL: no dump files from the fresh-seed load" >&2; exit 1; }
  base="${f##*/}"
  id="${base##*_}"
  id="${id%.out}"
  # --vary-seed gives request k of client c seed 200 + c * 10 + k;
  # recover it from the dump name (c<client>_r<k>_<id>.out).
  c="${base#c}"; c="${c%%_*}"
  k="${base#*_r}"; k="${k%%_*}"
  seed=$((200 + c * 10 + k))
  "$cli" run "$id" --seed "$seed" >"$tmp/ref2.txt" 2>/dev/null
  if ! cmp -s "$tmp/ref2.txt" "$f"; then
    echo "FAIL: $f differs from batch 'run $id --seed $seed' stdout" >&2
    diff "$tmp/ref2.txt" "$f" >&2 || true
    exit 1
  fi
  found=$((found + 1))
done
[ "$found" -eq 20 ] || { echo "FAIL: expected 20 fresh-seed results, got $found" >&2; exit 1; }
echo "ok: 20 fresh-seed results from 2 concurrent clients byte-identical to the batch CLI"

kill -TERM "$pid"
tries=0
while kill -0 "$pid" 2>/dev/null; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || { echo "FAIL: second daemon still running after SIGTERM" >&2; exit 1; }
  sleep 0.1
done
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "FAIL: second daemon exited $status" >&2; cat "$tmp/serve2.err" >&2; exit 1; }
echo "ok: second daemon shutdown clean"

echo "serve smoke passed"
