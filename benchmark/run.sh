#!/usr/bin/env bash
# The benchmark's entry point for the driver: build the harness from source
# into the checkout's own build directory and run it with the driver's
# arguments. Every file the toolchain writes (build cache, temporaries) stays
# inside the checkout. People can run `go run ./benchmark` instead.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
