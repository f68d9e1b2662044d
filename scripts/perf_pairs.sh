#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, exactly as benchmark/README.md
# §"Claiming a gain" prescribes: both commits are built once, every pair
# runs the same workload with the same seed on both sides, the side that
# goes first alternates from pair to pair, each side appends to its own
# -out file, and `go run ./benchmark compare` applies the claim rule at the
# end. Nothing under benchmark/ is touched; the parent is built from a
# `git archive` export of its tree that is removed again on exit.
#
#   scripts/perf_pairs.sh <parent-ref> <workload> [pairs=10] [first-seed=1]
#
# Pair i (0-based) uses seed first-seed+i, so "a second seed set" is just
# another first-seed (1 → seeds 1..10, 2001 → seeds 2001..2010). Run it on
# an otherwise idle machine: anything else that is running lands in the
# numbers. Run length is BENCHMARK.json's run_seconds; the run records and
# the comparison land in .bench_build/perf/<workload>-seed<first-seed>/.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
first_seed=${4:-1}

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
out=$root/.bench_build/perf/$workload-seed$first_seed
mkdir -p "$out"
rm -f "$out/parent.jsonl" "$out/change.jsonl"

parent_dir=$root/.bench_build/perf/parent-tree
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
trap 'rm -rf "$parent_dir"' EXIT
git archive "$parent_ref" | tar -x -C "$parent_dir"

# build <checkout>: what benchmark/run.sh does, minus the run.
build() {
    (
        cd "$1"
        b=$PWD/.bench_build
        mkdir -p "$b/gocache" "$b/gotmp" "$b/bin"
        GOCACHE=$b/gocache GOTMPDIR=$b/gotmp GOTOOLCHAIN=local \
            go build -o "$b/bin/" ./cmd/rsserve ./benchmark
    )
}
echo "== build parent ($parent_ref) and change ==" >&2
build "$parent_dir"
build "$root"

# run <checkout> <side> <seed>
run() {
    (
        cd "$1"
        b=$PWD/.bench_build
        "$b/bin/benchmark" -dir "$b" -rsserve "$b/bin/rsserve" \
            -workload "$workload" -seed "$3" -seconds "$seconds" -trace 0 \
            -out "$out/$2.jsonl" >/dev/null
    )
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        order="parent change"
    else
        order="change parent"
    fi
    echo "== pair $((i + 1))/$pairs  $workload seed=$seed  order: $order ==" >&2
    for side in $order; do
        if [ "$side" = parent ]; then
            run "$parent_dir" parent "$seed"
        else
            run "$root" change "$seed"
        fi
    done
done

echo "== compare ($out) ==" >&2
go run ./benchmark compare "$out/parent.jsonl" "$out/change.jsonl" | tee "$out/compare.txt"
