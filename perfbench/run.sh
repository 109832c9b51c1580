#!/usr/bin/env bash
# Builds the benchmark and the vsrd daemon from this checkout's sources,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload home-call --seed 1 --seconds 40 --trace 0
#
# Everything it writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout: binaries, the Go build cache and run
# state.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
	GOTELEMETRY=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
go build -o "$out/vsrd" ./cmd/vsrd >&2
exec "$out/perfbench" -workdir "$out" "$@"
