#!/usr/bin/env bash
# Builds the system under test (cmd/experiments, cmd/sweepd) and the
# benchmark driver from source, then runs the driver with this script's
# arguments:
#
#   bash tdmbench/run.sh --workload paper-figs --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # Go's env file and telemetry counters
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./cmd/experiments ./cmd/sweepd
go -C tdmbench build -o "$out/bin/tdmbench" .

# The driver and everything it starts share one CPU, the last one this
# script may use: on a VM, a second busy vCPU invites the hypervisor to
# steal time from both (README.md). Without taskset they run unpinned.
pin=()
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$out/bin/tdmbench" -root "$root" -bin "$out/bin" "$@"
