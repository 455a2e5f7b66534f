#!/usr/bin/env bash
# Measures the benchmark's own noise the way the driver judges it: two
# sets of RUNS full runs of the same code, back to back, each run with
# another seed (set 1: seeds 1..RUNS, set 2: RUNS+1..2*RUNS). Reports,
# for every (workload, metric) pair, each set's median and its spread
# (distance between the quartiles as a share of the median), and how
# much worse the second median is than the first. Fails if a gated
# metric's spread exceeds its bound in BENCHMARK.json, or if the second
# median is worse than the first by more than the bound: the benchmark
# would then reject a change that changed nothing.
#
#   bench/stability.sh                          # 2 x 5 runs, ~17 min
#   RUNS=10 bench/stability.sh > bench/BASELINE.md
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${RUNS:-5}
out=bench/out
mkdir -p "$out"
rm -f "$out"/stability-*.json
files=()
for i in $(seq 1 $((2 * runs))); do
  echo "run $i/$((2 * runs))" >&2
  file=$(printf '%s/stability-%02d.json' "$out" "$i")
  go run ./bench/benchload -seed "$i" | tail -n 1 > "$file"
  files+=("$file")
done
go run ./bench/benchload -report "${files[@]}"
