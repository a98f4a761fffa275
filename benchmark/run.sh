#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source inside the
# checkout and runs it with the data directory inside the checkout too, so
# that nothing is read or written outside it. Run from the repository root:
#
#   bash benchmark/run.sh --workload stencil-race --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/aickpt-benchmark" .)
exec "$build/aickpt-benchmark" -dir "$build/data" "$@"
