#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload repro_cold --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the service workload's artifact
# stores all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$commit+modified"
	fi
fi
go build -C perfbench -buildvcs=false -o "$out/perfbench" .
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
