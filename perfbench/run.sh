#!/usr/bin/env bash
# Build the workload harness from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed S --seconds T --trace 0|1
#
# Run from the repository root. Build output goes to stderr, so the
# last line on stdout is the harness's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a dyngraph source checkout" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
