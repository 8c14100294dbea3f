#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload ycsb-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, log files,
# span dumps) goes under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -logdir "$out" "$@"
