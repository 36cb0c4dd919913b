#!/usr/bin/env bash
# Builds the layer benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash layerbench/run.sh --workload join-dense --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# benchmark's temporary files all live under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/layerbench/go.mod" ]; then
	echo "layerbench: run from the repository root; the program's sources are missing here" >&2
	exit 1
fi
go -C "$root/layerbench" build -o "$out/layerbench" . >&2
exec "$out/layerbench" "$@"
