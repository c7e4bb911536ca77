#!/usr/bin/env bash
# Builds the lockin benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of a lockin checkout:
#
#   bash lockinbench/run.sh --workload spin-storm --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. Outside a full checkout (no lockin module next to this
# directory) the build fails and the script exits non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C lockinbench build -o "$build/lockinbench" .
exec "$build/lockinbench" "$@"
