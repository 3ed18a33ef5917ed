#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from anywhere; it works from the repository root. The Go build
# cache, temporary files and the binary stay under .bench_build/ in the
# repository, and the run's results, traces and stores under .bench_out/.
#
#   sh perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#   sh perfbench/run.sh compare <results-dir-A> <results-dir-B>
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
