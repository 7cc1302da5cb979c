#!/usr/bin/env bash
# Builds the benchmark and bvsimd from the source tree it sits in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-llc --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout:
# binaries and the Go build cache in .bench_build, scratch state and
# trace files in .bench_out.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go build -o "$build/bvsimd" ./cmd/bvsimd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -bvsimd "$build/bvsimd" -out "$root/.bench_out" "$@"
