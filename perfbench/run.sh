#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload rpc-small --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build product (compiler cache,
# temporary files, the harness binary) stays under .bench_build/ so the
# benchmark reads and writes nothing outside the checkout and needs no
# network: the harness imports only the standard library and the
# simulator's own packages.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
