#!/usr/bin/env bash
# Builds the benchmark, the daemon it measures and the traced run's
# probe from source into .bench_build/ below the current directory (the
# root of a checkout), then runs the benchmark with the arguments given:
#
#   bash bench/corunmark/run.sh --workload serve-trip --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays below .bench_build/,
# the Go build cache included.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$PWD/.bench_build"
mkdir -p "$work/bin"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# The three binaries are built with the toolchain's defaults, whatever
# the caller's shell has tuned.
unset GOGC GOMAXPROCS GODEBUG

(cd "$here" && go build -o "$work/bin/" . corun/cmd/corund)
# The probe binds to internal functions a refactor may move; when it
# does not build, untraced runs still work and --trace 1 says why not.
rm -f "$work/bin/probe"
(cd "$here" && go build -o "$work/bin/" ./probe) ||
	echo "corunmark: the probe does not build; --trace 1 will fail" >&2

exec "$work/bin/corunmark" -work "$work" "$@"
