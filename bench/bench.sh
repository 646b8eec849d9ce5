#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash bench/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, temporary files,
# trace files and the binary all stay under .bench_build, and the
# toolchain is kept offline (no module proxy, no toolchain download).
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -buildvcs=false -o "$out/bench" .
exec "$out/bench" "$@"
