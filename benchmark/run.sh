#!/usr/bin/env bash
# The BENCHMARK.json command: builds the benchmark from the checkout's
# source and runs one pass of one workload, e.g.
#   bash benchmark/run.sh --workload tcp-dht-search --seed 1 --seconds 15 --trace 0
# Everything the build and the run leave behind (Go build cache, temp
# files, the WAL directory, the binary) stays under .bench_build/ in
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
  echo "benchmark/run.sh: no go.mod in $PWD: the program's source is not in this checkout" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Go telemetry off: with a fresh config directory the go command would
# otherwise start a background child that outlives the build.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
go build -o "$build/up2p-benchmark" ./benchmark
exec "$build/up2p-benchmark" "$@"
