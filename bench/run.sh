#!/usr/bin/env bash
# Builds the serving benchmark and runs it. Call it from the root of a
# source checkout; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload ingest-tiny --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache included) stay under .bench_build in
# the checkout, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/servebench" .)
exec "$out/servebench" -root "$root" "$@"
