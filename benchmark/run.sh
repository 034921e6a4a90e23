#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload chaos-crash --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The toolchain's caches, telemetry counters and go env file live under
# GOCACHE, GOPATH and the user config directory; point all three inside.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/benchmark" build -buildvcs=false -o "$out/vinoperf" .
exec "$out/vinoperf" "$@"
