#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry
# counters) inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
