#!/usr/bin/env bash
# The pipeline's entry point: builds the benchmark from source and runs it
# with the given arguments, from the root of the checkout. Everything the Go
# toolchain and the benchmark write — build cache, temporary files, device
# images, span files — goes under .bench_build in that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command would start its telemetry
# child, which outlives a failed build; the mode file turns telemetry off.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/nemo-benchmark" ./benchmark
exec "$build/nemo-benchmark" -dir "$build" "$@"
