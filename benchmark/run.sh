#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it: the command of
# BENCHMARK.json. Everything the build and the run write — Go's build cache
# and temp files included — stays under .bench_build in the checkout, so a
# first run in a fresh checkout compiles the standard library too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -o "$build/bin/grapple-benchmark" ./benchmark
exec "$build/bin/grapple-benchmark" "$@"
