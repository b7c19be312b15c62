#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload ycsb_b_tcp --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go's build cache, its temporary files, the
# binary) stays under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/rocksteady-benchmark" ./benchmark
exec "$build/rocksteady-benchmark" "$@"
