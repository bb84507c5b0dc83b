#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload paper-accuracy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write (build cache, temp files, spilled traces, results)
# stays under .bench_build/ in that directory. Build output goes to
# stderr, so standard output carries only the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point it inside the build directory.
export XDG_CONFIG_HOME="$build/config"
# The benchmark needs nothing beyond the standard library and this
# repository: never download modules or toolchains.
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd benchmark && go build -buildvcs=false -o "$build/bin/benchmark" .) 1>&2
exec "$build/bin/benchmark" "$@"
