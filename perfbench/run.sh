#!/usr/bin/env bash
# Builds the benchmark driver and ccserve from this checkout, then runs the
# driver with the arguments given, for example
#
#   bash perfbench/run.sh --workload dense-cclique --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, the Go build cache, temporary
# files) stays in .bench_build/ at the checkout root, and the Go toolchain
# is kept off the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" .
go build -C "$root" -o "$out/ccserve" ./cmd/ccserve
cd "$root"
exec "$out/perfbench" -ccserve "$out/ccserve" "$@"
