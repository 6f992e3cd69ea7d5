#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json names this script: the build cache, the binary and every
# scratch file stay under the checkout, and a directory that holds only
# BENCHMARK.json and bench/ (no go.mod, no program) fails here, before any
# result is printed.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no go.mod and internal/ here: run from the root of a checkout that holds the program" >&2
	exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config/go/telemetry"
build="$(cd "$build" && pwd)"
# The go command keeps its env file and its telemetry counters under the
# user's config directory; point that into the checkout as well. Telemetry
# is switched off there before the first go command runs: in any other mode
# the go command forks a detached upload child once a day per config
# directory, which outlives it (even a failed `go build`) and is left behind
# as a stray process.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
echo off >"$build/config/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/mxbench" ./bench
exec "$build/mxbench" "$@"
