#!/usr/bin/env bash
# Compare two checkouts of this repository with alternating pairs.
#
#   bash benchmark/pairs.sh PARENT_DIR CHANGE_DIR [RUNS] [WORKLOAD...]
#
# Pair i runs both sides on seed i, the parent first on odd i and the
# change first on even i, recording every run to parent.jsonl and
# change.jsonl in the current directory; then prints, per workload and
# metric, both medians and quartiles, the spread against the bound and
# a verdict.  RUNS defaults to 10, the workloads to all four, and the
# run length to BENCH_SECONDS or 27 (run_seconds in BENCHMARK.json).
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
runs=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(fleet-audit fabric-full fabric-quotient serve-churn)
fi
seconds=${BENCH_SECONDS:-27}
out=$(pwd)
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$runs"); do
    if ((i % 2)); then sides=(parent change); else sides=(change parent); fi
    for side in "${sides[@]}"; do
      dir=$parent
      [ "$side" = change ] && dir=$change
      (cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" \
        --trace 0 --record "$out/$side.jsonl" >/dev/null)
    done
  done
done
"$change/_build/default/benchmark/run.exe" compare "$out/parent.jsonl" "$out/change.jsonl" \
  --benchmark "$change/BENCHMARK.json"
