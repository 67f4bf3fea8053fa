#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it:
#
#   bash perfbench/run.sh --workload train-dense --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run artifact (the Go
# build cache, the binary, work directories, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" "$@"
