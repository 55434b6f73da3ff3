#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload campus-ack --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, temporary files (trace spill) and the
# traced run's span files — stays under .bench_build/ in the current
# directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod and benchmark/go.mod not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C benchmark build -o "$out/lbcast-benchmark" .
exec "$out/lbcast-benchmark" "$@"
