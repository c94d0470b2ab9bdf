#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload edit-far --seed 1 --seconds 30 --trace 0
#
# Everything the build writes goes under .bench_build/ in the current
# directory: the compiler cache, temporary files, the go command's
# configuration directory (its telemetry counters) and the binary. The
# build never downloads: the module needs nothing beyond the repository.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
