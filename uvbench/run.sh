#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash uvbench/run.sh --workload jobs_repair --seed 1 --seconds 25 --trace 0
#
# Run it from the root of a uvllm checkout. Everything the build writes
# (the Go build cache, its temporary files, the toolchain's telemetry
# counters) stays under .bench_build/ in the checkout; the toolchain
# never touches the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/uvbench" && go build -buildvcs=false -o "$build/uvbench" .)
exec "$build/uvbench" "$@"
