#!/bin/sh
# Builds the benchmark from source into the build directory and runs it
# with the given arguments, from the root of a checkout:
#
#   sh _perfbench/run.sh --workload full-pairs --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and log stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build).
set -eu
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/home"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off GOPROXY=off
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --state-dir "$out" "$@"
