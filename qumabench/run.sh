#!/usr/bin/env bash
# Builds the benchmark from this checkout's source, then runs it with the
# given arguments. Run from the repository root:
#
#   bash qumabench/run.sh --workload rb_sweep --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build in the repository root:
# the binary, the Go build cache and spans.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

cd "$root/qumabench"
go build -o "$out/bin/qumabench" .
cd "$root"
exec "$out/bin/qumabench" --build-dir "$out" "$@"
