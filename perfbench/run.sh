#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload lan-small --seed 1 --seconds 12 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, the binary,
# result and span files, and the journal scratch directories.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
