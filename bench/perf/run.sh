#!/usr/bin/env bash
# Build the tdmd CLI and the perf program from this checkout, then run
#   perf run --workload NAME --seed N --seconds S --trace 0|1
# (any `perf run` arguments pass through).  Run from the repository
# root; build output goes to stderr, the last stdout line is the
# result JSON.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/server ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a tdmd checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# Everything the build and the run write stays inside the checkout.
export TMPDIR="$PWD/bench/perf/out/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled bin/tdmd_cli.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run "$@"
