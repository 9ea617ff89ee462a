#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash fleetbench/run.sh --workload drive --seed 1 --seconds 20 --trace 0
#   bash fleetbench/run.sh --selftest
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, profile
# libraries, journal files and span dumps.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
export FLEETBENCH_COMMIT="${FLEETBENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
go -C "$root/fleetbench" build -trimpath -o "$out/fleetbench" . >&2
exec "$out/fleetbench" "$@"
