#!/bin/sh
# The driver's entry point (BENCHMARK.json "command"): build the
# benchmark from source into .bench_build/ inside the checkout, then run
# it with the driver's arguments. Go's build cache is kept there too, so
# the build reads and writes nothing outside the checkout. Run from the
# repository root.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
