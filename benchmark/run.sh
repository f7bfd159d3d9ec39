#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
# Run from the root of the repository; arguments go to run.exe, e.g.
#   bash benchmark/run.sh --workload fleet-audit --seed 1 --seconds 27 --trace 0
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
