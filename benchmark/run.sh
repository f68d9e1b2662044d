#!/usr/bin/env bash
# Hermetic entry point for BENCHMARK.json: builds rsserve and the benchmark
# from the checkout it is started in and keeps every byte it writes (Go
# build cache, binaries, store files, traces) under ./.bench_build.
# Interactive use needs none of this: `go run ./benchmark ...` works too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/rsserve ./benchmark
exec "$out/bin/benchmark" -dir "$out" -rsserve "$out/bin/rsserve" "$@"
